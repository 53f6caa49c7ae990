/**
 * @file
 * Unit tests for the request schedulers.
 */
#include <gtest/gtest.h>

#include "sim/scheduler.h"
#include "util/error.h"

namespace hs = hddtherm::sim;
namespace hu = hddtherm::util;

namespace {

hs::IoRequest
req(std::uint64_t id)
{
    hs::IoRequest r;
    r.id = id;
    return r;
}

} // namespace

TEST(Scheduler, FcfsPreservesArrivalOrder)
{
    hs::Scheduler s(hs::SchedulerPolicy::Fcfs);
    s.push(req(1), 900);
    s.push(req(2), 10);
    s.push(req(3), 500);
    EXPECT_EQ(s.pop(0).request.id, 1u);
    EXPECT_EQ(s.pop(0).request.id, 2u);
    EXPECT_EQ(s.pop(0).request.id, 3u);
    EXPECT_TRUE(s.empty());
}

TEST(Scheduler, SstfPicksNearestCylinder)
{
    hs::Scheduler s(hs::SchedulerPolicy::Sstf);
    s.push(req(1), 900);
    s.push(req(2), 10);
    s.push(req(3), 500);
    EXPECT_EQ(s.pop(480).request.id, 3u);
    EXPECT_EQ(s.pop(500).request.id, 1u);
    EXPECT_EQ(s.pop(900).request.id, 2u);
}

TEST(Scheduler, SstfBreaksTiesByArrival)
{
    hs::Scheduler s(hs::SchedulerPolicy::Sstf);
    s.push(req(1), 110);
    s.push(req(2), 90);
    EXPECT_EQ(s.pop(100).request.id, 1u); // equal distance, first wins
}

TEST(Scheduler, MiddleRemovalKeepsArrivalOrderOfTheRest)
{
    // Taking a request from the middle of the queue must leave the
    // others in arrival order, or later ties resolve differently.
    for (const auto policy :
         {hs::SchedulerPolicy::Sstf, hs::SchedulerPolicy::Elevator}) {
        SCOPED_TRACE(hs::schedulerPolicyName(policy));
        hs::Scheduler s(policy);
        s.push(req(1), 100);
        s.push(req(2), 0);
        s.push(req(3), 50);
        s.push(req(4), 50);
        EXPECT_EQ(s.pop(0).request.id, 2u);
        EXPECT_EQ(s.pop(0).request.id, 3u);
        EXPECT_EQ(s.pop(50).request.id, 4u);
        EXPECT_EQ(s.pop(50).request.id, 1u);
        EXPECT_TRUE(s.empty());
    }
}

TEST(Scheduler, LongFcfsStreamKeepsOrderAcrossChunkReuse)
{
    // A queue that never drains keeps recycling its storage chunks from
    // the front to the back; the arrival order must survive every reuse.
    hs::Scheduler s(hs::SchedulerPolicy::Fcfs);
    std::uint64_t next_in = 1;
    std::uint64_t next_out = 1;
    for (int round = 0; round < 1000; ++round) {
        s.push(req(next_in++), round % 7);
        s.push(req(next_in++), round % 5);
        EXPECT_EQ(s.pop(0).request.id, next_out++);
    }
    EXPECT_EQ(s.size(), 1000u);
    while (!s.empty())
        EXPECT_EQ(s.pop(0).request.id, next_out++);
    EXPECT_EQ(next_out, next_in);
}

TEST(Scheduler, ElevatorSweepsUpThenDown)
{
    hs::Scheduler s(hs::SchedulerPolicy::Elevator);
    s.push(req(1), 300);
    s.push(req(2), 100);
    s.push(req(3), 200);
    // Head at 150 sweeping up: 200, 300, then reverse to 100.
    EXPECT_EQ(s.pop(150).request.id, 3u);
    EXPECT_EQ(s.pop(200).request.id, 1u);
    EXPECT_EQ(s.pop(300).request.id, 2u);
}

TEST(Scheduler, ElevatorServesEqualCylinder)
{
    hs::Scheduler s(hs::SchedulerPolicy::Elevator);
    s.push(req(1), 100);
    EXPECT_EQ(s.pop(100).request.id, 1u);
}

TEST(Scheduler, PopOnEmptyThrows)
{
    hs::Scheduler s(hs::SchedulerPolicy::Fcfs);
    EXPECT_THROW(s.pop(0), hu::ModelError);
}

TEST(Scheduler, PolicyNames)
{
    EXPECT_STREQ(hs::schedulerPolicyName(hs::SchedulerPolicy::Fcfs),
                 "FCFS");
    EXPECT_STREQ(hs::schedulerPolicyName(hs::SchedulerPolicy::Sstf),
                 "SSTF");
    EXPECT_STREQ(hs::schedulerPolicyName(hs::SchedulerPolicy::Elevator),
                 "ELEVATOR");
}

/// Property: every policy eventually serves every request exactly once.
class SchedulerPolicySweep
    : public ::testing::TestWithParam<hs::SchedulerPolicy>
{};

TEST_P(SchedulerPolicySweep, ServesAllExactlyOnce)
{
    hs::Scheduler s(GetParam());
    const int n = 200;
    for (int i = 0; i < n; ++i)
        s.push(req(std::uint64_t(i)), (i * 7919) % 10000);
    std::vector<bool> seen(n, false);
    int head = 0;
    for (int i = 0; i < n; ++i) {
        const auto e = s.pop(head);
        head = e.cylinder;
        ASSERT_LT(e.request.id, std::uint64_t(n));
        EXPECT_FALSE(seen[std::size_t(e.request.id)]);
        seen[std::size_t(e.request.id)] = true;
    }
    EXPECT_TRUE(s.empty());
}

INSTANTIATE_TEST_SUITE_P(Policies, SchedulerPolicySweep,
                         ::testing::Values(hs::SchedulerPolicy::Fcfs,
                                           hs::SchedulerPolicy::Sstf,
                                           hs::SchedulerPolicy::Elevator));
