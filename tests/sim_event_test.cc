/**
 * @file
 * Unit tests for the discrete-event kernel.
 */
#include <vector>

#include <gtest/gtest.h>

#include "engine/kernel.h"
#include "util/error.h"

namespace hu = hddtherm::util;

TEST(EventQueue, RunsInTimeOrder)
{
    hddtherm::engine::SimKernel q;
    std::vector<int> order;
    q.schedule(3.0, [&] { order.push_back(3); });
    q.schedule(1.0, [&] { order.push_back(1); });
    q.schedule(2.0, [&] { order.push_back(2); });
    q.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

TEST(EventQueue, SimultaneousEventsKeepInsertionOrder)
{
    hddtherm::engine::SimKernel q;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        q.schedule(1.0, [&order, i] { order.push_back(i); });
    q.runAll();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CallbackMaySchedule)
{
    hddtherm::engine::SimKernel q;
    int fired = 0;
    q.schedule(1.0, [&] {
        ++fired;
        q.schedule(2.0, [&] { ++fired; });
    });
    q.runAll();
    EXPECT_EQ(fired, 2);
    EXPECT_DOUBLE_EQ(q.now(), 2.0);
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    hddtherm::engine::SimKernel q;
    int fired = 0;
    q.schedule(1.0, [&] { ++fired; });
    q.schedule(5.0, [&] { ++fired; });
    q.runUntil(2.0);
    EXPECT_EQ(fired, 1);
    EXPECT_DOUBLE_EQ(q.now(), 2.0);
    EXPECT_EQ(q.pending(), 1u);
    q.runAll();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, ScheduleAfterUsesNow)
{
    hddtherm::engine::SimKernel q;
    double fired_at = -1.0;
    q.schedule(2.0, [&] {
        q.scheduleAfter(3.0, [&] { fired_at = q.now(); });
    });
    q.runAll();
    EXPECT_DOUBLE_EQ(fired_at, 5.0);
}

TEST(EventQueue, RejectsPastScheduling)
{
    hddtherm::engine::SimKernel q;
    q.schedule(5.0, [] {});
    q.runAll();
    EXPECT_THROW(q.schedule(1.0, [] {}), hu::ModelError);
    EXPECT_THROW(q.scheduleAfter(-1.0, [] {}), hu::ModelError);
}

TEST(EventQueue, RunNextOnEmptyReturnsFalse)
{
    hddtherm::engine::SimKernel q;
    EXPECT_FALSE(q.runNext());
    EXPECT_TRUE(q.empty());
}
