/**
 * @file
 * Integration tests of the storage system (striping, RMW, metrics).
 */
#include <algorithm>
#include <bit>
#include <memory>
#include <numeric>
#include <random>
#include <string>

#include <gtest/gtest.h>

#include "sim/storage_system.h"
#include "snap/state.h"
#include "util/error.h"

namespace hs = hddtherm::sim;
namespace hsnap = hddtherm::snap;
namespace hu = hddtherm::util;

namespace {

hs::SystemConfig
arrayConfig(int disks, hs::RaidLevel raid)
{
    hs::SystemConfig cfg;
    cfg.disk.geometry.diameterInches = 2.6;
    cfg.disk.tech = {400e3, 30e3};
    cfg.disk.rpm = 10000.0;
    cfg.disks = disks;
    cfg.raid = raid;
    return cfg;
}

hs::IoRequest
make(std::uint64_t id, double arrival, std::int64_t lba, int sectors,
     hs::IoType type = hs::IoType::Read, int device = 0)
{
    hs::IoRequest r;
    r.id = id;
    r.arrival = arrival;
    r.device = device;
    r.lba = lba;
    r.sectors = sectors;
    r.type = type;
    return r;
}

} // namespace

TEST(StorageSystem, JbodRoutesByDevice)
{
    hs::StorageSystem sys(arrayConfig(3, hs::RaidLevel::None));
    std::vector<hs::IoRequest> load;
    load.push_back(make(1, 0.0, 0, 8, hs::IoType::Read, 0));
    load.push_back(make(2, 0.0, 0, 8, hs::IoType::Read, 2));
    const auto metrics = sys.run(load);
    EXPECT_EQ(metrics.count(), 2u);
    EXPECT_EQ(sys.disk(0).activity().completions, 1u);
    EXPECT_EQ(sys.disk(1).activity().completions, 0u);
    EXPECT_EQ(sys.disk(2).activity().completions, 1u);
}

TEST(StorageSystem, JbodLogicalCapacityIsPerDevice)
{
    hs::StorageSystem sys(arrayConfig(3, hs::RaidLevel::None));
    EXPECT_EQ(sys.logicalSectors(), sys.disk(0).totalSectors());
}

TEST(StorageSystem, Raid0SpreadsAcrossDisks)
{
    hs::StorageSystem sys(arrayConfig(4, hs::RaidLevel::Raid0));
    EXPECT_EQ(sys.logicalSectors(), 4 * sys.disk(0).totalSectors());
    // A 64-sector read at stripe 16 touches all four disks.
    const auto metrics = sys.run({make(1, 0.0, 0, 64)});
    EXPECT_EQ(metrics.count(), 1u);
    for (int d = 0; d < 4; ++d)
        EXPECT_EQ(sys.disk(d).activity().completions, 1u) << d;
}

TEST(StorageSystem, Raid5ReadTouchesOnlyDataDisks)
{
    hs::StorageSystem sys(arrayConfig(4, hs::RaidLevel::Raid5));
    const auto metrics = sys.run({make(1, 0.0, 0, 16)});
    EXPECT_EQ(metrics.count(), 1u);
    std::uint64_t total = 0;
    for (int d = 0; d < 4; ++d)
        total += sys.disk(d).activity().completions;
    EXPECT_EQ(total, 1u); // one data unit, no parity traffic
}

TEST(StorageSystem, Raid5SmallWriteDoesReadModifyWrite)
{
    hs::StorageSystem sys(arrayConfig(4, hs::RaidLevel::Raid5));
    const auto metrics =
        sys.run({make(1, 0.0, 0, 16, hs::IoType::Write)});
    EXPECT_EQ(metrics.count(), 1u);
    // One data unit write: read old data + old parity, write both = 4 ops.
    std::uint64_t total = 0;
    for (int d = 0; d < 4; ++d)
        total += sys.disk(d).activity().completions;
    EXPECT_EQ(total, 4u);
}

TEST(StorageSystem, Raid5WriteSpanningRowsAmplifies)
{
    hs::StorageSystem sys(arrayConfig(4, hs::RaidLevel::Raid5));
    // 3 data units per row; 4 units span two rows: 4 data + 2 parity,
    // each read+written = 12 ops.
    const auto metrics =
        sys.run({make(1, 0.0, 0, 64, hs::IoType::Write)});
    EXPECT_EQ(metrics.count(), 1u);
    std::uint64_t total = 0;
    for (int d = 0; d < 4; ++d)
        total += sys.disk(d).activity().completions;
    EXPECT_EQ(total, 12u);
}

TEST(StorageSystem, Raid5WriteSlowerThanRead)
{
    hs::StorageSystem read_sys(arrayConfig(4, hs::RaidLevel::Raid5));
    const auto read_metrics = read_sys.run({make(1, 0.0, 1024, 16)});
    hs::StorageSystem write_sys(arrayConfig(4, hs::RaidLevel::Raid5));
    const auto write_metrics =
        write_sys.run({make(1, 0.0, 1024, 16, hs::IoType::Write)});
    EXPECT_GT(write_metrics.meanMs(), read_metrics.meanMs());
}

TEST(StorageSystem, MetricsCountAllLogicalRequests)
{
    hs::StorageSystem sys(arrayConfig(3, hs::RaidLevel::None));
    std::vector<hs::IoRequest> load;
    for (std::uint64_t i = 0; i < 100; ++i) {
        load.push_back(make(i + 1, double(i) * 0.001,
                            std::int64_t(i) * 1000 % 100000, 8,
                            i % 3 ? hs::IoType::Read : hs::IoType::Write,
                            int(i % 3)));
    }
    const auto metrics = sys.run(load);
    EXPECT_EQ(metrics.count(), 100u);
    EXPECT_GT(metrics.meanMs(), 0.0);
    EXPECT_EQ(sys.inflight(), 0u);
}

TEST(StorageSystem, CompletionCallbackFires)
{
    hs::StorageSystem sys(arrayConfig(1, hs::RaidLevel::None));
    int called = 0;
    sys.setCompletionCallback(
        [&called](const hs::IoCompletion&) { ++called; });
    sys.run({make(1, 0.0, 0, 8), make(2, 0.001, 64, 8)});
    EXPECT_EQ(called, 2);
}

TEST(StorageSystem, ArrivalTimesAreHonored)
{
    hs::StorageSystem sys(arrayConfig(1, hs::RaidLevel::None));
    hs::IoCompletion seen;
    sys.setCompletionCallback(
        [&seen](const hs::IoCompletion& c) { seen = c; });
    sys.run({make(1, 5.0, 0, 8)});
    EXPECT_DOUBLE_EQ(seen.arrival, 5.0);
    EXPECT_GT(seen.finish, 5.0);
}

TEST(StorageSystem, GateAllPausesArray)
{
    hs::StorageSystem sys(arrayConfig(2, hs::RaidLevel::None));
    sys.gateAll(true);
    sys.submit(make(1, 0.0, 0, 8));
    sys.runAll();
    EXPECT_EQ(sys.metrics().count(), 0u);
    sys.gateAll(false);
    sys.runAll();
    EXPECT_EQ(sys.metrics().count(), 1u);
}

TEST(StorageSystem, RejectsBadRequests)
{
    hs::StorageSystem sys(arrayConfig(2, hs::RaidLevel::None));
    EXPECT_THROW(sys.submit(make(1, 0.0, -5, 8)), hu::ModelError);
    EXPECT_THROW(sys.submit(make(2, 0.0, sys.logicalSectors(), 8)),
                 hu::ModelError);
    EXPECT_THROW(
        sys.submit(make(3, 0.0, 0, 8, hs::IoType::Read, 7)),
        hu::ModelError);
}

TEST(StorageSystem, Raid5RequiresThreeDisks)
{
    EXPECT_THROW(
        { hs::StorageSystem sys(arrayConfig(2, hs::RaidLevel::Raid5)); },
        hu::ModelError);
}

TEST(StorageSystem, ImmediateWriteReportUsesReportLatency)
{
    auto cfg = arrayConfig(2, hs::RaidLevel::None);
    cfg.immediateWriteReport = true;
    cfg.writeReportLatencyMs = 0.25;
    hs::StorageSystem sys(cfg);
    hs::IoCompletion seen;
    sys.setCompletionCallback(
        [&seen](const hs::IoCompletion& c) { seen = c; });
    sys.run({make(1, 1.0, 0, 64, hs::IoType::Write)});

    // The write is reported at the NVRAM latency, not the media latency.
    EXPECT_EQ(seen.id, 1u);
    EXPECT_NEAR(seen.responseTimeMs(), 0.25, 1e-9);
    EXPECT_EQ(sys.metrics().count(), 1u);
    EXPECT_NEAR(sys.metrics().meanMs(), 0.25, 1e-9);
    // The media traffic still flowed in the background.
    EXPECT_EQ(sys.disk(0).activity().completions, 1u);
}

TEST(StorageSystem, ImmediateWriteReportLeavesReadsUntouched)
{
    auto cfg = arrayConfig(1, hs::RaidLevel::None);
    cfg.immediateWriteReport = true;
    cfg.writeReportLatencyMs = 0.1;
    hs::StorageSystem sys(cfg);
    const auto metrics = sys.run({make(1, 0.0, 0, 8, hs::IoType::Read)});
    // Reads pay the full media latency, well above the report latency.
    EXPECT_EQ(metrics.count(), 1u);
    EXPECT_GT(metrics.meanMs(), 0.1);
}

TEST(StorageSystem, ImmediateWriteReportOrdersBeforeMediaCompletion)
{
    auto cfg = arrayConfig(1, hs::RaidLevel::None);
    cfg.immediateWriteReport = true;
    cfg.writeReportLatencyMs = 0.05;
    hs::StorageSystem sys(cfg);
    std::vector<hs::IoCompletion> order;
    sys.setCompletionCallback(
        [&order](const hs::IoCompletion& c) { order.push_back(c); });

    // A write and a later read to the same device: the write's report
    // fires at submit time, before either media access completes, and the
    // read still queues behind the write's background media traffic.
    sys.submit(make(1, 0.0, 0, 256, hs::IoType::Write));
    sys.submit(make(2, 0.001, 4096, 8, hs::IoType::Read));
    sys.runAll();

    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0].id, 1u);
    EXPECT_EQ(order[1].id, 2u);
    EXPECT_LT(order[0].finish, order[1].finish);
    // Background media work for the write happened even though its
    // completion was reported long before.
    EXPECT_EQ(sys.disk(0).activity().completions, 2u);
    EXPECT_GT(order[1].responseTimeMs(), 0.05);
}

TEST(StorageSystem, ImmediateWriteReportCountsRaid5WritesOnce)
{
    auto cfg = arrayConfig(4, hs::RaidLevel::Raid5);
    cfg.immediateWriteReport = true;
    hs::StorageSystem sys(cfg);
    // A small RMW write plus a read; each logical request is counted
    // exactly once despite the write's two-phase sub-request fan-out.
    const auto metrics = sys.run({
        make(1, 0.0, 0, 8, hs::IoType::Write),
        make(2, 0.0, 1024, 8, hs::IoType::Read),
    });
    EXPECT_EQ(metrics.count(), 2u);
    EXPECT_EQ(sys.inflight(), 0u);
}

namespace {

/// One array organization of the lazy-vs-eager oracle.
struct OracleCase
{
    const char* name;
    int disks;
    hs::RaidLevel raid;
    int failed; ///< Member to fail before replay (-1 = healthy).
    hs::SchedulerPolicy policy;
};

/**
 * A seeded workload that is deliberately hostile to an arrival feed:
 * arrivals come from a coarse grid (so many coincide), the vector is in
 * shuffled order, and ids are a shuffled permutation.
 */
std::vector<hs::IoRequest>
scrambledWorkload(std::uint64_t seed, std::size_t n,
                  const hs::StorageSystem& sys)
{
    std::mt19937_64 rng(seed);
    std::vector<std::uint64_t> ids(n);
    std::iota(ids.begin(), ids.end(), std::uint64_t(1));
    std::shuffle(ids.begin(), ids.end(), rng);
    std::vector<hs::IoRequest> out;
    for (std::size_t i = 0; i < n; ++i) {
        const int sectors = 1 + int(rng() % 64);
        const auto span = std::uint64_t(sys.logicalSectors() - sectors);
        // A 40 ms grid with about four arrivals per point (100 req/s).
        const double arrival = double(rng() % (n / 4)) * 0.04;
        out.push_back(make(ids[i], arrival, std::int64_t(rng() % span),
                           sectors,
                           rng() % 3 ? hs::IoType::Read : hs::IoType::Write,
                           int(rng() % std::uint64_t(sys.diskCount()))));
    }
    return out;
}

struct Observed
{
    hs::ResponseMetrics metrics;
    std::uint64_t fired = 0;
    double now = 0.0;
    std::vector<std::uint64_t> completionIds;
    std::vector<double> finishes;
};

hs::SystemConfig
oracleConfig(const OracleCase& c)
{
    auto cfg = arrayConfig(c.disks, c.raid);
    cfg.disk.scheduler = c.policy;
    return cfg;
}

void
observeCompletions(hs::StorageSystem& sys, Observed& seen)
{
    sys.setCompletionCallback([&seen](const hs::IoCompletion& c) {
        seen.completionIds.push_back(c.id);
        seen.finishes.push_back(c.finish);
    });
}

void
expectBitEqual(double a, double b, const char* what)
{
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a),
              std::bit_cast<std::uint64_t>(b))
        << what << ": " << a << " vs " << b;
}

} // namespace

TEST(StorageSystemFeed, LazyRunMatchesEagerSubmission)
{
    const OracleCase cases[] = {
        {"JBOD", 3, hs::RaidLevel::None, -1, hs::SchedulerPolicy::Fcfs},
        {"RAID-0", 4, hs::RaidLevel::Raid0, -1, hs::SchedulerPolicy::Sstf},
        {"RAID-1", 2, hs::RaidLevel::Raid1, -1, hs::SchedulerPolicy::Fcfs},
        {"RAID-5", 4, hs::RaidLevel::Raid5, -1,
         hs::SchedulerPolicy::Elevator},
        {"RAID-5 degraded", 4, hs::RaidLevel::Raid5, 1,
         hs::SchedulerPolicy::Fcfs},
    };
    for (const auto& c : cases) {
        for (std::uint64_t seed = 1; seed <= 8; ++seed) {
            SCOPED_TRACE(std::string(c.name) + " seed " +
                         std::to_string(seed));
            hs::StorageSystem lazy(oracleConfig(c));
            hs::StorageSystem eager(oracleConfig(c));
            if (c.failed >= 0) {
                lazy.failDisk(c.failed);
                eager.failDisk(c.failed);
            }
            const auto workload = scrambledWorkload(seed, 300, lazy);
            ASSERT_FALSE(std::is_sorted(
                workload.begin(), workload.end(),
                [](const hs::IoRequest& a, const hs::IoRequest& b) {
                    return a.arrival < b.arrival;
                }));

            Observed a;
            Observed b;
            observeCompletions(lazy, a);
            observeCompletions(eager, b);
            a.metrics = lazy.run(workload);
            for (const auto& r : workload)
                eager.submit(r);
            eager.runAll();
            b.metrics = eager.metrics();
            a.fired = lazy.events().fired();
            b.fired = eager.events().fired();
            a.now = lazy.events().now();
            b.now = eager.events().now();

            ASSERT_EQ(a.metrics.count(), workload.size());
            EXPECT_EQ(a.metrics.count(), b.metrics.count());
            expectBitEqual(a.metrics.meanMs(), b.metrics.meanMs(), "mean");
            expectBitEqual(a.metrics.stats().variance(),
                           b.metrics.stats().variance(), "variance");
            const auto& ha = a.metrics.histogram();
            const auto& hb = b.metrics.histogram();
            for (std::size_t bin = 0; bin <= ha.bins(); ++bin)
                EXPECT_EQ(ha.binCount(bin), hb.binCount(bin)) << bin;
            EXPECT_EQ(a.fired, b.fired);
            expectBitEqual(a.now, b.now, "now");
            EXPECT_EQ(a.completionIds, b.completionIds);
            EXPECT_EQ(a.finishes, b.finishes);
            EXPECT_FALSE(lazy.feeding());
            EXPECT_EQ(lazy.events().reservedPending(), 0u);
        }
    }
}

TEST(StorageSystemFeed, BadRequestAnywhereFailsBeforeAnyEvent)
{
    const auto good = [](std::size_t n) {
        std::vector<hs::IoRequest> load;
        for (std::size_t i = 0; i < n; ++i)
            load.push_back(make(i + 1, double(i) * 1e-3,
                                std::int64_t(i) * 64, 8,
                                hs::IoType::Read, int(i % 2)));
        return load;
    };

    {
        SCOPED_TRACE("beyond capacity, last request");
        hs::StorageSystem sys(arrayConfig(2, hs::RaidLevel::None));
        auto load = good(50);
        load.back().lba = sys.logicalSectors() - 4;
        EXPECT_THROW(sys.run(load), hu::ModelError);
        EXPECT_EQ(sys.events().fired(), 0u);
        EXPECT_TRUE(sys.events().empty());
        EXPECT_EQ(sys.events().reservedPending(), 0u);
    }
    {
        SCOPED_TRACE("device out of range, middle request");
        hs::StorageSystem sys(arrayConfig(2, hs::RaidLevel::None));
        auto load = good(50);
        load[25].device = 2;
        EXPECT_THROW(sys.run(load), hu::ModelError);
        EXPECT_EQ(sys.events().fired(), 0u);
        EXPECT_TRUE(sys.events().empty());
    }
    {
        SCOPED_TRACE("arrival before now()");
        hs::StorageSystem sys(arrayConfig(2, hs::RaidLevel::None));
        sys.events().runUntil(1.0);
        auto load = good(50);
        for (auto& r : load)
            r.arrival += 1.0;
        load[40].arrival = 0.5;
        EXPECT_THROW(sys.run(load), hu::ModelError);
        EXPECT_EQ(sys.events().fired(), 0u);
        EXPECT_TRUE(sys.events().empty());

        // Nothing was left half-fed: the same system replays a good
        // trace afterwards.
        load[40].arrival = 1.5;
        EXPECT_EQ(sys.run(load).count(), 50u);
    }
}

TEST(StorageSystemFeed, ArrivalsPendingAfterAThrowOutliveTheTrace)
{
    // A duplicate in-flight id throws out of run() mid-replay.  As with
    // eager submission, the rest of the trace stays pending and a later
    // runAll() replays it, even though the caller's vector is gone.
    const auto trace = [] {
        std::vector<hs::IoRequest> load;
        for (std::uint64_t i = 0; i < 60; ++i)
            load.push_back(make(i + 1, double(i / 2) * 0.004,
                                std::int64_t(i) * 128, 8));
        load[31].id = load[30].id; // same arrival, still in flight
        return load;
    };
    Observed lazy_seen;
    Observed eager_seen;
    hs::StorageSystem lazy(arrayConfig(1, hs::RaidLevel::None));
    hs::StorageSystem eager(arrayConfig(1, hs::RaidLevel::None));
    observeCompletions(lazy, lazy_seen);
    observeCompletions(eager, eager_seen);
    {
        const auto load = trace();
        EXPECT_THROW(lazy.run(load), hu::ModelError);
    }
    for (const auto& r : trace())
        eager.submit(r);
    EXPECT_THROW(eager.runAll(), hu::ModelError);
    EXPECT_EQ(lazy.events().fired(), eager.events().fired());
    EXPECT_THROW(lazy.run(trace()), hu::ModelError); // still pending

    lazy.runAll();
    eager.runAll();
    EXPECT_EQ(lazy.metrics().count(), 59u);
    expectBitEqual(lazy.metrics().meanMs(), eager.metrics().meanMs(),
                   "mean");
    EXPECT_EQ(lazy.events().fired(), eager.events().fired());
    EXPECT_EQ(lazy_seen.completionIds, eager_seen.completionIds);
    EXPECT_EQ(lazy_seen.finishes, eager_seen.finishes);
}

TEST(StorageSystemFeed, CheckpointDuringActiveFeedIsRefused)
{
    hs::StorageSystem sys(arrayConfig(2, hs::RaidLevel::None));
    const auto domain = sys.events().registerDomain("storage");
    constexpr std::uint32_t kCheckpointTask = 100;
    int attempts = 0;
    sys.events().registerTask(kCheckpointTask, [&] {
        ++attempts;
        EXPECT_TRUE(sys.feeding());
        hsnap::StateWriter system_state("sim.system");
        EXPECT_THROW(sys.saveState(system_state), hu::ModelError);
        hsnap::StateWriter kernel_state("engine.kernel");
        sys.events().saveState(kernel_state); // throws: the feed is live
        return true;
    });
    sys.events().schedulePeriodic(domain, 0.1, kCheckpointTask);
    std::vector<hs::IoRequest> load;
    for (std::uint64_t i = 0; i < 100; ++i)
        load.push_back(make(i + 1, double(i) * 0.01,
                            std::int64_t(i) * 64, 8));
    EXPECT_THROW(sys.run(load), hu::ModelError);
    EXPECT_EQ(attempts, 1);
}

TEST(StorageSystemFeed, CheckpointAfterFeedDrainsSucceeds)
{
    // Once run() has scheduled its last arrival the kernel holds every
    // pending event, so checkpoints are legal again.
    hs::StorageSystem sys(arrayConfig(2, hs::RaidLevel::None));
    sys.run({make(1, 0.0, 0, 8), make(2, 0.002, 64, 8, hs::IoType::Write,
                                      1)});
    hsnap::StateWriter kernel_state("engine.kernel");
    EXPECT_NO_THROW(sys.events().saveState(kernel_state));
    hsnap::StateWriter system_state("sim.system");
    EXPECT_NO_THROW(sys.saveState(system_state));
}

TEST(StorageSystemFeed, Raid5MidRunCheckpointRoundTrips)
{
    // In-flight RAID-5 state (two-phase writes, degraded reconstruction,
    // sub-request table, disk queues and caches) survives a checkpoint:
    // the resumed run finishes bit-identically and re-serializes to the
    // same bytes.
    for (const int failed : {-1, 2}) {
        SCOPED_TRACE("failed member " + std::to_string(failed));
        const auto cfg = arrayConfig(4, hs::RaidLevel::Raid5);
        const auto build = [&] {
            auto sys = std::make_unique<hs::StorageSystem>(cfg);
            if (failed >= 0)
                sys->failDisk(failed);
            return sys;
        };
        auto original = build();
        const auto workload = scrambledWorkload(11, 400, *original);
        for (const auto& r : workload)
            original->submit(r);
        original->events().runUntil(0.1);
        ASSERT_GT(original->inflight(), 0u);

        hsnap::StateWriter kernel_state("engine.kernel");
        original->events().saveState(kernel_state);
        hsnap::StateWriter system_state("sim.system");
        original->saveState(system_state);

        auto resumed = build();
        const auto sys_bytes = system_state.buffer();
        hsnap::StateReader sys_reader("sim.system", sys_bytes.data(),
                                      sys_bytes.size());
        resumed->loadState(sys_reader);
        const auto kernel_bytes = kernel_state.buffer();
        hsnap::StateReader kernel_reader("engine.kernel",
                                         kernel_bytes.data(),
                                         kernel_bytes.size());
        resumed->events().loadState(kernel_reader);

        hsnap::StateWriter again("sim.system");
        resumed->saveState(again);
        EXPECT_EQ(again.buffer(), system_state.buffer());

        original->runAll();
        resumed->runAll();
        EXPECT_EQ(resumed->metrics().count(), workload.size());
        expectBitEqual(resumed->metrics().meanMs(),
                       original->metrics().meanMs(), "mean");
        EXPECT_EQ(resumed->events().fired(), original->events().fired());
        expectBitEqual(resumed->events().now(), original->events().now(),
                       "now");
    }
}
