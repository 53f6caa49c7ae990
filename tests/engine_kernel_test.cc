/**
 * @file
 * Unit tests for the SimKernel: (time, priority, sequence) ordering,
 * clock domains, periodic tasks, and the event-trace hook interface.
 */
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/kernel.h"
#include "engine/trace.h"
#include "snap/state.h"
#include "util/error.h"

namespace he = hddtherm::engine;
namespace hsnap = hddtherm::snap;
namespace hu = hddtherm::util;

TEST(SimKernel, TimeTiesBreakByInsertionSequence)
{
    // The kernel's determinism contract: simultaneous events of equal
    // priority fire strictly in the order they were scheduled.
    he::SimKernel k;
    std::vector<int> order;
    for (int i = 0; i < 32; ++i)
        k.schedule(1.0, [&order, i] { order.push_back(i); });
    k.runAll();
    ASSERT_EQ(order.size(), 32u);
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(order[std::size_t(i)], i);
}

TEST(SimKernel, PriorityOutranksSequenceAtEqualTimes)
{
    he::SimKernel k;
    const auto late = k.registerDomain("late", 5);
    const auto early = k.registerDomain("early", -5);
    std::vector<std::string> order;
    k.schedule(1.0, late, [&] { order.push_back("late"); });
    k.schedule(1.0, [&] { order.push_back("default"); });
    k.schedule(1.0, early, [&] { order.push_back("early"); });
    k.runAll();
    EXPECT_EQ(order,
              (std::vector<std::string>{"early", "default", "late"}));
}

TEST(SimKernel, TimeAlwaysOutranksPriority)
{
    he::SimKernel k;
    const auto urgent = k.registerDomain("urgent", -100);
    std::vector<int> order;
    k.schedule(2.0, urgent, [&] { order.push_back(2); });
    k.schedule(1.0, [&] { order.push_back(1); });
    k.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(SimKernel, DomainRegistrationIsIdempotentByName)
{
    he::SimKernel k;
    const auto a = k.registerDomain("storage");
    const auto b = k.registerDomain("storage");
    EXPECT_EQ(a, b);
    EXPECT_EQ(k.domainName(a), "storage");
    EXPECT_EQ(k.domainCount(), 2); // default + storage
    // Conflicting priority on an existing name is a configuration error.
    EXPECT_THROW(k.registerDomain("storage", 3), hu::ModelError);
    EXPECT_THROW(k.registerDomain(""), hu::ModelError);
}

TEST(SimKernel, DefaultDomainAlwaysExists)
{
    he::SimKernel k;
    EXPECT_EQ(k.domainCount(), 1);
    EXPECT_EQ(k.domainName(he::SimKernel::kDefaultDomain), "default");
    EXPECT_EQ(k.domainPriority(he::SimKernel::kDefaultDomain), 0);
    EXPECT_THROW(k.domainName(7), hu::ModelError);
}

TEST(SimKernel, SchedulingToUnknownDomainThrows)
{
    he::SimKernel k;
    EXPECT_THROW(k.schedule(1.0, 3, [] {}), hu::ModelError);
}

TEST(SimKernel, PeriodicTaskFiresUntilCallbackStops)
{
    he::SimKernel k;
    const auto ctrl = k.registerDomain("control");
    std::vector<double> fired_at;
    k.schedulePeriodic(ctrl, 0.5, [&] {
        fired_at.push_back(k.now());
        return fired_at.size() < 4;
    });
    k.runAll();
    EXPECT_EQ(fired_at, (std::vector<double>{0.5, 1.0, 1.5, 2.0}));
    EXPECT_TRUE(k.empty());
}

TEST(SimKernel, PeriodicRescheduleComesAfterCallbackEvents)
{
    // Events a periodic callback schedules at the next tick's timestamp
    // must fire before that tick: the reschedule happens after the
    // callback returns, so its sequence number is larger.
    he::SimKernel k;
    const auto ctrl = k.registerDomain("control");
    std::vector<std::string> order;
    int ticks = 0;
    k.schedulePeriodic(ctrl, 1.0, [&] {
        order.push_back("tick@" + std::to_string(int(k.now())));
        if (++ticks == 1)
            k.schedule(2.0, [&] { order.push_back("event@2"); });
        return ticks < 2;
    });
    k.runAll();
    EXPECT_EQ(order, (std::vector<std::string>{"tick@1", "event@2",
                                               "tick@2"}));
}

TEST(SimKernel, PeriodicCallbackMayArmFurtherPeriodicTasks)
{
    // Regression guard: arming a periodic task from inside another's
    // callback grows the kernel's task table mid-fire.
    he::SimKernel k;
    const auto ctrl = k.registerDomain("control");
    int outer = 0;
    int inner = 0;
    k.schedulePeriodic(ctrl, 1.0, [&] {
        if (++outer == 1) {
            k.schedulePeriodic(ctrl, 0.25, [&] {
                ++inner;
                return inner < 3;
            });
        }
        return outer < 2;
    });
    k.runAll();
    EXPECT_EQ(outer, 2);
    EXPECT_EQ(inner, 3);
}

TEST(SimKernel, PeriodicCallbackSurvivesTaskTableReallocation)
{
    // Regression guard (use-after-free, caught under ASan): the outer
    // callback captures a single pointer, so std::function stores the
    // closure inline.  Arming a new periodic task mid-fire reallocates
    // the kernel's task table; the executing closure must survive that
    // and still be able to touch its captures afterwards.
    he::SimKernel k;
    const auto ctrl = k.registerDomain("control");
    struct State
    {
        he::SimKernel* kernel;
        he::DomainId domain;
        int outer = 0;
        int inner = 0;
    } s{&k, ctrl};
    k.schedulePeriodic(ctrl, 1.0, [p = &s] {
        if (++p->outer == 1) {
            p->kernel->schedulePeriodic(p->domain, 0.25,
                                        [p] { return ++p->inner < 3; });
        }
        return p->outer < 2;
    });
    k.runAll();
    EXPECT_EQ(s.outer, 2);
    EXPECT_EQ(s.inner, 3);
}

TEST(SimKernel, RingBufferClearedEventsAreNotCountedAsDropped)
{
    he::RingBufferTraceSink sink(4);
    he::TraceEvent ev;
    for (int i = 0; i < 3; ++i)
        sink.onEvent(ev);
    sink.clear();
    EXPECT_EQ(sink.events().size(), 0u);
    EXPECT_EQ(sink.observed(), 3u);
    EXPECT_EQ(sink.dropped(), 0u); // cleared, not dropped

    // Counters keep running after clear(); only overwrites drop.
    for (int i = 0; i < 6; ++i)
        sink.onEvent(ev);
    EXPECT_EQ(sink.events().size(), 4u);
    EXPECT_EQ(sink.observed(), 9u);
    EXPECT_EQ(sink.dropped(), 2u);
}

TEST(SimKernel, RingBufferSinkSeesSchedulesAndFires)
{
    he::SimKernel k;
    const auto storage = k.registerDomain("storage");
    he::RingBufferTraceSink sink(64);
    k.setTraceSink(&sink);
    k.schedule(1.0, storage, [] {});
    k.schedule(2.0, [] {});
    k.runAll();
    k.setTraceSink(nullptr);

    const auto events = sink.events();
    ASSERT_EQ(events.size(), 4u); // 2 schedules + 2 fires
    EXPECT_EQ(sink.observed(), 4u);
    EXPECT_EQ(sink.dropped(), 0u);

    EXPECT_EQ(events[0].kind, he::TraceKind::Scheduled);
    EXPECT_DOUBLE_EQ(events[0].time, 0.0); // emitted at schedule time
    EXPECT_DOUBLE_EQ(events[0].when, 1.0); // fires later
    EXPECT_EQ(events[0].domain, storage);
    EXPECT_EQ(events[0].domainName, "storage");

    EXPECT_EQ(events[2].kind, he::TraceKind::Fired);
    EXPECT_DOUBLE_EQ(events[2].time, 1.0);
    EXPECT_EQ(events[2].id, events[0].id); // same payload id
    EXPECT_EQ(events[3].domainName, "default");
}

TEST(SimKernel, RingBufferSinkKeepsTheNewestEvents)
{
    he::SimKernel k;
    he::RingBufferTraceSink sink(3);
    k.setTraceSink(&sink);
    for (int i = 0; i < 5; ++i)
        k.schedule(double(i + 1), [] {});
    k.runAll();
    // 5 schedules + 5 fires observed; only the last 3 fires survive.
    EXPECT_EQ(sink.observed(), 10u);
    EXPECT_EQ(sink.dropped(), 7u);
    const auto events = sink.events();
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].kind, he::TraceKind::Fired);
    EXPECT_DOUBLE_EQ(events[0].when, 3.0);
    EXPECT_DOUBLE_EQ(events[2].when, 5.0);
}

TEST(SimKernel, BufferedTraceEventsOutliveTheKernel)
{
    // TraceEvents own their domain names: a sink buffer must stay valid
    // after its kernel is destroyed (the fleet's epoch kernel is a local
    // of FleetSimulation::run(), while callers inspect the sink after).
    he::RingBufferTraceSink sink(8);
    {
        he::SimKernel k;
        const auto epoch = k.registerDomain("fleet-epoch");
        k.setTraceSink(&sink);
        k.schedule(1.0, epoch, [] {});
        k.runAll();
    }
    const auto events = sink.events();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].domainName, "fleet-epoch");
    EXPECT_EQ(events[1].domainName, "fleet-epoch");
}

TEST(SimKernel, CsvSinkWritesOneRowPerEvent)
{
    he::SimKernel k;
    const auto thermal = k.registerDomain("thermal");
    std::ostringstream csv;
    he::CsvTraceSink sink(csv);
    k.setTraceSink(&sink);
    k.schedule(0.5, thermal, [] {});
    k.runAll();
    EXPECT_EQ(sink.rows(), 2u);

    std::istringstream in(csv.str());
    std::string line;
    std::getline(in, line);
    EXPECT_EQ(line, "time_sec,when_sec,domain,kind,id");
    std::getline(in, line);
    EXPECT_NE(line.find("thermal,scheduled"), std::string::npos);
    std::getline(in, line);
    EXPECT_NE(line.find("thermal,fired"), std::string::npos);
}

TEST(SimKernel, FiredCounterTracksExecutedEvents)
{
    he::SimKernel k;
    for (int i = 0; i < 3; ++i)
        k.schedule(1.0, [] {});
    EXPECT_EQ(k.fired(), 0u);
    k.runAll();
    EXPECT_EQ(k.fired(), 3u);
}

TEST(SimKernel, RunUntilAdvancesClockPastDrainedQueue)
{
    he::SimKernel k;
    int fired = 0;
    k.schedule(1.0, [&] { ++fired; });
    k.runUntil(10.0);
    EXPECT_EQ(fired, 1);
    EXPECT_DOUBLE_EQ(k.now(), 10.0);
}

/// A test event kind: the handler logs the payload-th name.
constexpr std::uint32_t kLogKind = 100;

TEST(SimKernel, ReservedSequencesSortWhereTheyWereReserved)
{
    // Events scheduled later under reserved numbers tie-break as if they
    // had been scheduled at reservation time: ahead of anything
    // scheduled after the reservation, behind anything before it.
    he::SimKernel k;
    std::vector<std::string> order;
    const std::vector<std::string> reserved{"reserved+0", "reserved+1"};
    k.registerHandler(kLogKind, 0, [&](std::uint64_t payload) {
        order.push_back(reserved[payload]);
    });
    k.schedule(1.0, [&] { order.push_back("before"); });
    const auto base = k.reserveSequences(2);
    EXPECT_EQ(k.reservedPending(), 2u);
    k.schedule(1.0, [&] { order.push_back("after"); });
    k.scheduleReserved(1.0, he::SimKernel::kDefaultDomain, base + 1,
                       kLogKind, 0, 1);
    k.schedule(0.5, [&] {
        k.scheduleReserved(1.0, he::SimKernel::kDefaultDomain, base,
                           kLogKind, 0, 0);
    });
    k.runAll();
    EXPECT_EQ(k.reservedPending(), 0u);
    EXPECT_EQ(order, (std::vector<std::string>{"before", "reserved+0",
                                               "reserved+1", "after"}));
}

TEST(SimKernel, ScheduleReservedRejectsUnreservedNumbers)
{
    he::SimKernel k;
    k.registerHandler(kLogKind, 0, [](std::uint64_t) {});
    EXPECT_THROW(k.scheduleReserved(1.0, he::SimKernel::kDefaultDomain, 0,
                                    kLogKind, 0, 0),
                 hu::ModelError);
    k.schedule(1.0, [] {});
    EXPECT_THROW(k.scheduleReserved(1.0, he::SimKernel::kDefaultDomain, 5,
                                    kLogKind, 0, 0),
                 hu::ModelError);
}

TEST(SimKernel, SaveRefusesWhileReservationsAreUnscheduled)
{
    he::SimKernel k;
    k.registerHandler(kLogKind, 0, [](std::uint64_t) {});
    const auto base = k.reserveSequences(1);
    hsnap::StateWriter early("engine.kernel");
    EXPECT_THROW(k.saveState(early), hu::ModelError);
    k.scheduleReserved(1.0, he::SimKernel::kDefaultDomain, base, kLogKind,
                       0, 0);
    hsnap::StateWriter later("engine.kernel");
    EXPECT_NO_THROW(k.saveState(later));
}
