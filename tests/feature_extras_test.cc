/**
 * @file
 * Tests of the analysis affordances: latency log, queue-depth accounting,
 * heat-flow breakdown, trace slicing/acceleration.
 */
#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "sim/latency_log.h"
#include "sim/storage_system.h"
#include "thermal/drive_thermal.h"
#include "trace/trace.h"
#include "util/error.h"

namespace hs = hddtherm::sim;
namespace ht = hddtherm::thermal;
namespace htr = hddtherm::trace;
namespace hu = hddtherm::util;

TEST(LatencyLog, RecordsAndSummarizes)
{
    hs::LatencyLog log;
    EXPECT_TRUE(log.empty());
    for (int i = 1; i <= 100; ++i) {
        hs::IoCompletion c;
        c.id = std::uint64_t(i);
        c.arrival = 0.0;
        c.finish = double(i) * 1e-3; // 1..100 ms
        log.record(c);
    }
    EXPECT_EQ(log.size(), 100u);
    EXPECT_NEAR(log.meanMs(), 50.5, 1e-9);
    EXPECT_NEAR(log.quantileMs(0.5), 51.0, 1.0);
    EXPECT_NEAR(log.quantileMs(0.95), 96.0, 1.0);
    EXPECT_NEAR(log.quantileMs(0.0), 1.0, 1e-9);
    log.clear();
    EXPECT_DOUBLE_EQ(log.meanMs(), 0.0);
    EXPECT_DOUBLE_EQ(log.quantileMs(0.5), 0.0);
}

TEST(LatencyLog, CsvRoundTrip)
{
    hs::LatencyLog log;
    hs::IoCompletion c;
    c.id = 7;
    c.arrival = 1.0;
    c.finish = 1.0125;
    log.record(c);
    const std::string path = "/tmp/hddtherm_latlog_test.csv";
    ASSERT_TRUE(log.writeCsv(path));
    std::ifstream in(path);
    std::string header, row;
    std::getline(in, header);
    std::getline(in, row);
    EXPECT_EQ(header, "id,arrival_s,finish_s,latency_ms");
    EXPECT_NE(row.find("7,"), std::string::npos);
    EXPECT_NE(row.find("12.5"), std::string::npos);
    std::remove(path.c_str());
    EXPECT_FALSE(log.writeCsv("/nonexistent-dir/x.csv"));
    EXPECT_THROW(log.quantileMs(1.5), hu::ModelError);
}

TEST(LatencyLog, HooksIntoStorageSystem)
{
    hs::SystemConfig cfg;
    cfg.disk.tech = {400e3, 30e3};
    hs::StorageSystem sys(cfg);
    hs::LatencyLog log;
    sys.setCompletionCallback(
        [&log](const hs::IoCompletion& c) { log.record(c); });

    std::vector<hs::IoRequest> load;
    for (std::uint64_t i = 0; i < 50; ++i) {
        hs::IoRequest r;
        r.id = i + 1;
        r.arrival = double(i) * 0.005;
        r.lba = std::int64_t(i) * 4000;
        r.sectors = 8;
        load.push_back(r);
    }
    const auto metrics = sys.run(load);
    ASSERT_EQ(log.size(), 50u);
    EXPECT_NEAR(log.meanMs(), metrics.meanMs(), 1e-9);
}

TEST(QueueDepth, LittlesLawConsistency)
{
    // L = lambda * W: the time-averaged system population must match the
    // arrival rate times the mean response time.
    hddtherm::engine::SimKernel events;
    hs::DiskConfig cfg;
    cfg.tech = {400e3, 30e3};
    hs::SimDisk disk(events, cfg);
    double total_latency = 0.0;
    int done = 0;
    disk.setCompletionHandler(
        [&](const hs::IoRequest& req, hddtherm::engine::SimTime finish) {
            total_latency += finish - req.arrival;
            ++done;
        });
    const int n = 400;
    const double rate = 120.0;
    for (int i = 0; i < n; ++i) {
        hs::IoRequest r;
        r.id = std::uint64_t(i + 1);
        r.arrival = double(i) / rate;
        r.lba = std::int64_t(i) * 10007 % 500000;
        r.sectors = 8;
        events.schedule(r.arrival, [&disk, r] { disk.submit(r); });
    }
    events.runAll();
    ASSERT_EQ(done, n);
    const double elapsed = events.now();
    const double lambda = double(n) / elapsed;
    const double mean_w = total_latency / n;
    EXPECT_NEAR(disk.avgQueueDepth(elapsed), lambda * mean_w,
                0.1 * lambda * mean_w + 0.02);
    EXPECT_GT(disk.utilization(elapsed), 0.1);
    EXPECT_LE(disk.utilization(elapsed), 1.0);
}

TEST(HeatFlows, ConserveEnergyAtSteadyState)
{
    ht::DriveThermalConfig cfg;
    cfg.geometry.diameterInches = 2.6;
    cfg.rpm = 15020.0;
    ht::DriveThermalModel m(cfg);
    const auto flows = m.steadyHeatFlows();
    ASSERT_EQ(flows.size(), 6u);
    double to_ambient = 0.0;
    for (const auto& f : flows) {
        if (f.path == "base->ambient")
            to_ambient = f.watts;
    }
    // Everything the sources inject leaves through the base.
    EXPECT_NEAR(to_ambient, m.totalPowerW(), 1e-6);
    // The spindle sheds its motor loss through its two paths.
    double spindle_out = 0.0;
    for (const auto& f : flows) {
        if (f.path == "spindle->air" || f.path == "spindle->base")
            spindle_out += f.watts;
    }
    EXPECT_NEAR(spindle_out, m.spmPowerW(), 1e-6);
}

TEST(TraceSlice, WindowAndRebase)
{
    htr::Trace t("x");
    t.append({0.5, 0, 0, 8, false});
    t.append({1.5, 0, 100, 8, false});
    t.append({2.5, 0, 200, 8, true});
    const auto mid = t.slice(1.0, 2.0);
    ASSERT_EQ(mid.size(), 1u);
    EXPECT_DOUBLE_EQ(mid.records()[0].time, 0.5);
    EXPECT_EQ(mid.records()[0].lba, 100);
    EXPECT_THROW(t.slice(2.0, 1.0), hu::ModelError);
}

TEST(TraceAccelerate, CompressesTimeOnly)
{
    htr::Trace t("x");
    t.append({1.0, 0, 0, 8, false});
    t.append({3.0, 1, 50, 16, true});
    const auto fast = t.accelerate(2.0);
    ASSERT_EQ(fast.size(), 2u);
    EXPECT_DOUBLE_EQ(fast.records()[0].time, 0.5);
    EXPECT_DOUBLE_EQ(fast.records()[1].time, 1.5);
    EXPECT_EQ(fast.records()[1].lba, 50);
    EXPECT_EQ(fast.records()[1].sectors, 16);
    EXPECT_THROW(t.accelerate(0.0), hu::ModelError);
    // Rate doubles.
    EXPECT_NEAR(htr::analyze(fast).arrivalRatePerSec,
                2.0 * htr::analyze(t).arrivalRatePerSec, 1e-9);
}
