/**
 * @file
 * Cross-module integration tests: the same physical quantity computed
 * through different layers of the stack must agree, and end-to-end runs
 * must be deterministic.
 */
#include <gtest/gtest.h>

#include "core/energy.h"
#include "core/integrated.h"
#include "core/scenarios.h"
#include "dtm/governor.h"
#include "dtm/slack.h"
#include "hdd/capacity.h"
#include "hdd/drive_catalog.h"
#include "roadmap/roadmap.h"
#include "sim/storage_system.h"
#include "trace/placement.h"

namespace hc = hddtherm::core;
namespace hd = hddtherm::dtm;
namespace hh = hddtherm::hdd;
namespace hr = hddtherm::roadmap;
namespace hs = hddtherm::sim;
namespace ht = hddtherm::thermal;
namespace htr = hddtherm::trace;

TEST(Integration, SimulatorCapacityMatchesCapacityModel)
{
    // The simulator's addressable space and the capacity model must agree
    // exactly for every catalog drive — they share the ZoneModel.
    for (const auto& drive : hh::table1Drives()) {
        hs::DiskConfig cfg;
        cfg.geometry = drive.geometry();
        cfg.tech = drive.tech();
        cfg.rpm = drive.rpm;
        hddtherm::engine::SimKernel events;
        hs::SimDisk disk(events, cfg);
        EXPECT_EQ(disk.totalSectors(), drive.layout().totalUserSectors())
            << drive.model;
    }
}

TEST(Integration, SlackAnalysisAgreesWithEnvelopeQueries)
{
    // dtm::analyzeSlack and direct envelope searches are different code
    // paths over the same thermal model.
    const hr::RoadmapEngine engine;
    const auto slack = hd::analyzeSlack(2.6, 1, engine);

    ht::DriveThermalConfig cfg;
    cfg.geometry.diameterInches = 2.6;
    cfg.rpm = 15000.0;
    cfg.vcmDuty = 1.0;
    EXPECT_NEAR(slack.envelopeRpm, ht::maxRpmWithinEnvelope(cfg), 2.0);
    cfg.vcmDuty = 0.0;
    EXPECT_NEAR(slack.slackRpm, ht::maxRpmWithinEnvelope(cfg), 2.0);
}

TEST(Integration, RoadmapMaxRpmMatchesCalibrationAnchor)
{
    const hr::RoadmapEngine engine;
    EXPECT_NEAR(engine.evaluate(2002, 2.6, 1).maxRpm,
                ht::kEnvelopeRpm26, 30.0);
}

TEST(Integration, IntegratedModelAgreesWithLayers)
{
    hc::DriveDesign design;
    design.geometry.diameterInches = 2.6;
    design.geometry.platters = 4;
    design.tech = {533e3, 64e3};
    design.rpm = 15000.0;
    const auto eval = hc::evaluateDesign(design);

    const auto layout = design.layout();
    EXPECT_DOUBLE_EQ(eval.idrMBps,
                     hh::internalDataRateMBps(layout, design.rpm));
    EXPECT_DOUBLE_EQ(eval.capacity.userGB,
                     hh::computeCapacity(layout).userGB);
    EXPECT_DOUBLE_EQ(eval.steadyAirTempC,
                     ht::steadyAirTempC(design.thermalConfig()));
}

TEST(Integration, ZoneRatesBracketTheIdr)
{
    const auto drive = *hh::findDrive("Seagate Cheetah 15K.3");
    const auto layout = drive.layout();
    const auto rates = hh::zoneDataRatesMBps(layout, drive.rpm);
    ASSERT_EQ(int(rates.size()), layout.zones());
    EXPECT_DOUBLE_EQ(rates.front(),
                     hh::internalDataRateMBps(layout, drive.rpm));
    // Monotone ZBR staircase, with the classic ~2:1 outer/inner ratio.
    for (std::size_t i = 1; i < rates.size(); ++i)
        EXPECT_LT(rates[i], rates[i - 1]);
    EXPECT_NEAR(rates.front() / rates.back(), 2.0, 0.35);
}

TEST(Integration, ScenarioRunsAreDeterministic)
{
    const auto s = hc::figure4Scenario("OLTP", 4000);
    const auto a = s.run(s.baseRpm);
    const auto b = s.run(s.baseRpm);
    EXPECT_DOUBLE_EQ(a.meanMs(), b.meanMs());
    EXPECT_EQ(a.count(), b.count());
    const auto cdf_a = a.histogram().cdf();
    const auto cdf_b = b.histogram().cdf();
    for (std::size_t i = 0; i < cdf_a.size(); ++i)
        EXPECT_DOUBLE_EQ(cdf_a[i], cdf_b[i]);
}

TEST(Integration, EnergyConsistentWithActivityAccounting)
{
    const auto s = hc::figure4Scenario("OLTP", 3000);
    hs::SystemConfig cfg = s.system;
    hs::StorageSystem array(cfg);
    const htr::SyntheticWorkload gen(s.workload);
    array.run(gen.generate(array.logicalSectors()).toRequests());
    const double elapsed = array.events().now();

    for (int d = 0; d < array.diskCount(); ++d) {
        const auto& activity = array.disk(d).activity();
        const auto e = hc::accountEnergy(cfg.disk.geometry, cfg.disk.rpm,
                                         activity, elapsed);
        // VCM energy never exceeds the full-duty bound.
        EXPECT_LE(e.vcmJ,
                  ht::vcmPowerW(cfg.disk.geometry.diameterInches) *
                          elapsed +
                      1e-9)
            << d;
        EXPECT_GT(e.totalJ(), 0.0);
    }
}

TEST(Integration, ShuffledTraceStillReplaysCorrectly)
{
    // Placement remapping must keep every request inside the disk and
    // complete a full replay.
    hs::SystemConfig cfg;
    cfg.disk.geometry.diameterInches = 2.6;
    cfg.disk.tech = {500e3, 60e3};
    cfg.disk.rpm = 15000.0;
    hs::StorageSystem array(cfg);
    const std::int64_t space = array.logicalSectors();

    htr::WorkloadSpec spec;
    spec.requests = 3000;
    spec.zipfTheta = 1.0;
    spec.seed = 9;
    const auto tr = htr::SyntheticWorkload(spec).generate(space);
    const htr::ShuffleMap map(tr, space, 4096);
    const auto metrics = array.run(map.apply(tr).toRequests());
    EXPECT_EQ(metrics.count(), 3000u);
}

TEST(Integration, OpenmailTraceMatchesPublishedCharacter)
{
    // The Openmail generator was tuned to the paper's description: heavy
    // sequential runs yet most requests still move the arm.
    const auto s = hc::figure4Scenario("Openmail", 20000);
    const auto tr = s.makeTrace();
    const auto stats = htr::analyze(tr);
    EXPECT_NEAR(stats.readFraction, 0.40, 0.03);
    EXPECT_NEAR(stats.sequentialFraction, 0.50, 0.05);

    const hs::StorageSystem probe(s.system);
    const auto seeks =
        htr::analyzeSeeks(tr, probe.disk(0).addressMap());
    // Paper: >86% of requests move the arm; on the logical-volume view
    // (before striping interleaves streams further) the bulk still do.
    EXPECT_GT(seeks.armMovementFraction, 0.45);
    EXPECT_GT(seeks.meanSeekCylinders, 500.0);
}

TEST(Integration, GovernorCeilingMatchesSlackAnalysis)
{
    // The governor's sustainable-speed query at duty 0/1 must agree with
    // the slack analysis (both bisect the same thermal model, the
    // governor through its precomputed ladder).
    const hr::RoadmapEngine engine;
    const auto slack = hd::analyzeSlack(2.6, 1, engine);

    ht::DriveThermalConfig base;
    base.geometry.diameterInches = 2.6;
    base.rpm = 15000.0;
    std::vector<double> ladder;
    for (double rpm = 14000.0; rpm <= 27000.0; rpm += 500.0)
        ladder.push_back(rpm);
    const hd::SpeedGovernor gov(base, ladder);
    EXPECT_NEAR(gov.maxSustainableRpm(1.0), slack.envelopeRpm, 500.0);
    EXPECT_NEAR(gov.maxSustainableRpm(0.0), slack.slackRpm, 500.0);
}
