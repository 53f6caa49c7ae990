/**
 * @file
 * Tests of idle-gap recording and the spin-down policy evaluator.
 */
#include <gtest/gtest.h>

#include "dtm/spindown.h"
#include "sim/disk.h"
#include "util/error.h"

namespace hd = hddtherm::dtm;
namespace hh = hddtherm::hdd;
namespace hs = hddtherm::sim;
namespace hu = hddtherm::util;

namespace {

hh::PlatterGeometry
geom26()
{
    hh::PlatterGeometry g;
    g.diameterInches = 2.6;
    return g;
}

} // namespace

TEST(IdleGaps, RecordedOnlyWhenEnabled)
{
    hddtherm::engine::SimKernel events;
    hs::DiskConfig cfg;
    cfg.tech = {400e3, 30e3};
    cfg.recordIdleGaps = false;
    hs::SimDisk off(events, cfg);
    cfg.recordIdleGaps = true;
    hs::SimDisk on(events, cfg, 1);

    auto submit_two = [&events](hs::SimDisk& disk) {
        hs::IoRequest r;
        r.id = 1;
        r.arrival = events.now();
        r.lba = 0;
        r.sectors = 8;
        disk.submit(r);
        events.runAll();
        events.schedule(events.now() + 0.5, [] {});
        events.runAll();
        r.id = 2;
        r.lba = 100000;
        disk.submit(r);
        events.runAll();
    };
    submit_two(off);
    submit_two(on);
    EXPECT_TRUE(off.idleGaps().empty());
    // Two gaps: the start-up idle (t=0 until the first dispatch on the
    // shared clock) and the 0.5 s injected between the requests.
    ASSERT_EQ(on.idleGaps().size(), 2u);
    EXPECT_NEAR(on.idleGaps().back(), 0.5, 1e-9);
}

TEST(Spindown, NoGapLongEnoughMeansNoAction)
{
    const std::vector<double> gaps = {0.1, 0.5, 2.0};
    hd::SpindownParams params;
    params.timeoutSec = 10.0;
    const auto r = hd::evaluateSpindown(gaps, geom26(), 10000.0, params);
    EXPECT_EQ(r.spinDowns, 0u);
    EXPECT_DOUBLE_EQ(r.savedFraction(), 0.0);
    EXPECT_DOUBLE_EQ(r.addedLatencySec, 0.0);
    EXPECT_DOUBLE_EQ(r.policyEnergyJ, r.idleEnergyJ);
}

TEST(Spindown, LongGapsSaveEnergyButStallRequests)
{
    const std::vector<double> gaps(10, 300.0); // five-minute think times
    hd::SpindownParams params;
    params.timeoutSec = 10.0;
    const auto r = hd::evaluateSpindown(gaps, geom26(), 10000.0, params);
    EXPECT_EQ(r.spinDowns, 10u);
    EXPECT_GT(r.savedFraction(), 0.5);
    EXPECT_NEAR(r.addedLatencySec, 10.0 * params.spinUpSec, 1e-9);
    EXPECT_NEAR(r.meanStallSec(), params.spinUpSec, 1e-9);
}

TEST(Spindown, BorderlineGapsCanCostEnergy)
{
    // Gaps barely past the threshold: the spin-up energy dominates.
    hd::SpindownParams params;
    params.timeoutSec = 10.0;
    const std::vector<double> gaps(20, params.timeoutSec +
                                           params.spinDownSec + 1.0);
    const auto r = hd::evaluateSpindown(gaps, geom26(), 10000.0, params);
    EXPECT_EQ(r.spinDowns, 20u);
    EXPECT_LT(r.savedFraction(), 0.0);
}

TEST(Spindown, IdleEnergyUsesSpinningPower)
{
    // 100 s of idle at 2.6"/15098 RPM: SPM (~10.2 W) + windage (0.91 W).
    const std::vector<double> gaps = {100.0};
    const auto r = hd::evaluateSpindown(gaps, geom26(), 15098.0,
                                        hd::SpindownParams{});
    EXPECT_NEAR(r.idleEnergyJ, (10.2 + 0.91) * 100.0, 3.0);
}

TEST(Spindown, HigherRpmRaisesTheStakes)
{
    const std::vector<double> gaps(5, 120.0);
    const auto slow = hd::evaluateSpindown(gaps, geom26(), 7200.0);
    const auto fast = hd::evaluateSpindown(gaps, geom26(), 20000.0);
    EXPECT_GT(fast.idleEnergyJ, slow.idleEnergyJ);
    // Same absolute overheads, bigger spinning power: larger fraction
    // saved at high RPM.
    EXPECT_GT(fast.savedFraction(), slow.savedFraction());
}

TEST(Spindown, RejectsBadInput)
{
    hd::SpindownParams params;
    params.timeoutSec = -1.0;
    EXPECT_THROW(hd::evaluateSpindown({1.0}, geom26(), 10000.0, params),
                 hu::ModelError);
    EXPECT_THROW(hd::evaluateSpindown({-1.0}, geom26(), 10000.0),
                 hu::ModelError);
}

TEST(Spindown, EmptyGapsAreSafe)
{
    const auto r = hd::evaluateSpindown({}, geom26(), 10000.0);
    EXPECT_EQ(r.idleGaps, 0u);
    EXPECT_DOUBLE_EQ(r.savedFraction(), 0.0);
    EXPECT_DOUBLE_EQ(r.meanStallSec(), 0.0);
}
