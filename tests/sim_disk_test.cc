/**
 * @file
 * Integration tests of a single simulated disk.
 */
#include <vector>

#include <gtest/gtest.h>

#include "sim/disk.h"
#include "util/error.h"

namespace hs = hddtherm::sim;
namespace hu = hddtherm::util;

namespace {

hs::DiskConfig
smallDisk(double rpm = 10000.0)
{
    hs::DiskConfig cfg;
    cfg.geometry.diameterInches = 2.6;
    cfg.geometry.platters = 1;
    cfg.tech = {400e3, 30e3};
    cfg.zones = 30;
    cfg.rpm = rpm;
    return cfg;
}

struct Rig
{
    hddtherm::engine::SimKernel events;
    hs::SimDisk disk;
    std::vector<hs::IoCompletion> done;

    explicit Rig(const hs::DiskConfig& cfg = smallDisk())
        : disk(events, cfg)
    {
        disk.setCompletionHandler(
            [this](const hs::IoRequest& req, hddtherm::engine::SimTime finish) {
                done.push_back({req.id, req.arrival, finish});
            });
    }

    hs::IoRequest make(std::uint64_t id, std::int64_t lba, int sectors,
                       hs::IoType type = hs::IoType::Read)
    {
        hs::IoRequest r;
        r.id = id;
        r.arrival = events.now();
        r.lba = lba;
        r.sectors = sectors;
        r.type = type;
        return r;
    }
};

} // namespace

TEST(SimDisk, CompletesARead)
{
    Rig rig;
    rig.disk.submit(rig.make(1, 1000, 8));
    rig.events.runAll();
    ASSERT_EQ(rig.done.size(), 1u);
    EXPECT_EQ(rig.done[0].id, 1u);
    // Sane single-request service time: sub-millisecond overhead up to a
    // couple of mechanical visits.
    EXPECT_GT(rig.done[0].responseTimeMs(), 0.1);
    EXPECT_LT(rig.done[0].responseTimeMs(), 30.0);
    EXPECT_TRUE(rig.disk.idle());
}

TEST(SimDisk, SequentialReadsHitTheTrackBuffer)
{
    Rig rig;
    // First read misses; subsequent reads on the same track hit.
    rig.disk.submit(rig.make(1, 0, 8));
    rig.events.runAll();
    for (std::uint64_t i = 0; i < 5; ++i)
        rig.disk.submit(rig.make(10 + i, 8 + std::int64_t(i) * 8, 8));
    rig.events.runAll();
    EXPECT_EQ(rig.disk.cacheStats().readMisses, 1u);
    EXPECT_EQ(rig.disk.cacheStats().readHits, 5u);
    // Cache hits are much faster than the mechanical visit.
    EXPECT_LT(rig.done[1].responseTimeMs(), 1.0);
}

TEST(SimDisk, WritesAlwaysTouchTheMedia)
{
    Rig rig;
    rig.disk.submit(rig.make(1, 0, 8, hs::IoType::Write));
    rig.disk.submit(rig.make(2, 0, 8, hs::IoType::Write));
    rig.events.runAll();
    EXPECT_EQ(rig.disk.activity().mediaAccesses, 2u);
}

TEST(SimDisk, QueueingDelaysLaterRequests)
{
    Rig rig;
    // Two far-apart requests submitted back to back: the second waits.
    const auto far = rig.disk.totalSectors() - 64;
    rig.disk.submit(rig.make(1, 0, 8));
    rig.disk.submit(rig.make(2, far, 8));
    rig.events.runAll();
    ASSERT_EQ(rig.done.size(), 2u);
    EXPECT_GT(rig.done[1].responseTimeMs(), rig.done[0].responseTimeMs());
}

TEST(SimDisk, GateHoldsRequestsUntilReleased)
{
    Rig rig;
    rig.disk.gate(true);
    rig.disk.submit(rig.make(1, 0, 8));
    rig.events.runAll();
    EXPECT_TRUE(rig.done.empty());
    EXPECT_EQ(rig.disk.queueDepth(), 1u);
    rig.disk.gate(false);
    rig.events.runAll();
    EXPECT_EQ(rig.done.size(), 1u);
}

TEST(SimDisk, RpmChangeBlocksServiceDuringTransition)
{
    Rig rig;
    rig.disk.changeRpm(20000.0); // 10 krpm delta -> 1 s transition
    EXPECT_DOUBLE_EQ(rig.disk.rpm(), 20000.0);
    rig.disk.submit(rig.make(1, 0, 8));
    rig.events.runAll();
    ASSERT_EQ(rig.done.size(), 1u);
    EXPECT_GE(rig.done[0].finish, 1.0);
}

TEST(SimDisk, RpmChangeWhileBusyAppliesAfterService)
{
    Rig rig;
    rig.disk.submit(rig.make(1, 0, 8));
    rig.disk.changeRpm(15000.0); // disk is busy: deferred
    EXPECT_DOUBLE_EQ(rig.disk.rpm(), 10000.0);
    rig.events.runAll();
    EXPECT_DOUBLE_EQ(rig.disk.rpm(), 15000.0);
}

TEST(SimDisk, HigherRpmReducesMissLatency)
{
    // Average over many independent random reads.
    auto run = [](double rpm) {
        Rig rig(smallDisk(rpm));
        double total = 0.0;
        const int n = 200;
        for (int i = 0; i < n; ++i) {
            rig.done.clear();
            const std::int64_t lba =
                (std::int64_t(i) * 7919 * 1024) %
                (rig.disk.totalSectors() - 64);
            rig.disk.submit(rig.make(std::uint64_t(i), lba, 8));
            rig.events.runAll();
            total += rig.done[0].responseTimeMs();
        }
        return total / n;
    };
    EXPECT_LT(run(20000.0), run(10000.0));
}

TEST(SimDisk, ActivityAccountingIsConsistent)
{
    Rig rig;
    for (std::uint64_t i = 0; i < 50; ++i) {
        const std::int64_t lba =
            (std::int64_t(i) * 104729 * 64) %
            (rig.disk.totalSectors() - 64);
        rig.disk.submit(rig.make(i, lba, 8));
    }
    rig.events.runAll();
    const auto& a = rig.disk.activity();
    EXPECT_EQ(a.completions, 50u);
    EXPECT_LE(a.mediaAccesses, a.completions);
    EXPECT_LE(a.seeks, a.mediaAccesses);
    EXPECT_GT(a.busySec, 0.0);
    EXPECT_GE(a.busySec,
              a.seekSec + a.rotationSec + a.transferSec - 1e-9);
}

TEST(SimDisk, RejectsOutOfRangeRequests)
{
    Rig rig;
    EXPECT_THROW(rig.disk.submit(rig.make(1, -1, 8)), hu::ModelError);
    EXPECT_THROW(rig.disk.submit(rig.make(2, rig.disk.totalSectors(), 8)),
                 hu::ModelError);
    auto r = rig.make(3, 0, 0);
    EXPECT_THROW(rig.disk.submit(r), hu::ModelError);
}
