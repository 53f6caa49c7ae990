/**
 * @file
 * Experiment E13 — google-benchmark microbenchmarks of the simulator and
 * model components, documenting the cost of the building blocks every
 * experiment leans on.
 */
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "dtm/governor.h"
#include "engine/kernel.h"
#include "hdd/capacity.h"
#include "hdd/drive_catalog.h"
#include "harness/bench.h"
#include "sim/cache.h"
#include "sim/disk.h"
#include "sim/raid.h"
#include "thermal/drive_thermal.h"
#include "thermal/envelope.h"
#include "trace/placement.h"
#include "trace/synth.h"
#include "util/ascii_plot.h"
#include "util/random.h"
#include "util/stats.h"

using namespace hddtherm;

namespace {

thermal::DriveThermalConfig
thermalConfig()
{
    thermal::DriveThermalConfig cfg;
    cfg.geometry.diameterInches = 2.6;
    cfg.rpm = 15000.0;
    return cfg;
}

void
BM_ThermalNetworkStep(benchmark::State& state)
{
    thermal::DriveThermalModel model(thermalConfig());
    for (auto _ : state) {
        model.advance(0.1, 0.1);
        benchmark::DoNotOptimize(model.airTempC());
    }
}
BENCHMARK(BM_ThermalNetworkStep);

void
BM_DriveControlTick(benchmark::State& state)
{
    // One DTM control tick as dtm::CoSimEngine drives the model: a new
    // measured VCM duty, then the transient advanced to the next 0.1 s
    // tick on the accumulated clock.
    thermal::DriveThermalModel model(thermalConfig());
    double t = 0.0;
    bool busy = false;
    for (auto _ : state) {
        busy = !busy;
        model.setVcmDuty(busy ? 0.8 : 0.2);
        t += 0.1;
        model.advanceTo(t);
        benchmark::DoNotOptimize(model.airTempC());
    }
}
BENCHMARK(BM_DriveControlTick);

void
BM_ThermalSteadyState(benchmark::State& state)
{
    thermal::DriveThermalModel model(thermalConfig());
    for (auto _ : state)
        benchmark::DoNotOptimize(model.steadyAirTempC());
}
BENCHMARK(BM_ThermalSteadyState);

void
BM_MaxRpmEnvelopeSearch(benchmark::State& state)
{
    const auto cfg = thermalConfig();
    for (auto _ : state)
        benchmark::DoNotOptimize(thermal::maxRpmWithinEnvelope(cfg));
}
BENCHMARK(BM_MaxRpmEnvelopeSearch);

void
BM_ZoneLayoutBuild(benchmark::State& state)
{
    const auto drive = *hdd::findDrive("Seagate Cheetah 15K.3");
    for (auto _ : state) {
        const auto layout = drive.layout(int(state.range(0)));
        benchmark::DoNotOptimize(layout.totalUserSectors());
    }
}
BENCHMARK(BM_ZoneLayoutBuild)->Arg(10)->Arg(30)->Arg(100);

void
BM_EventQueueThroughput(benchmark::State& state)
{
    for (auto _ : state) {
        engine::SimKernel q;
        int fired = 0;
        for (int i = 0; i < 1000; ++i)
            q.schedule(double(i % 97), [&fired] { ++fired; });
        q.runAll();
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueThroughput);

void
BM_DiskCacheLookup(benchmark::State& state)
{
    sim::DiskCache cache(4u << 20, 16);
    util::Rng rng(7);
    for (int i = 0; i < 16; ++i)
        cache.install(i * 100000, 512);
    for (auto _ : state) {
        const auto lba = rng.uniformInt(0, 15) * 100000 +
                         rng.uniformInt(0, 400);
        benchmark::DoNotOptimize(cache.read(lba, 8));
    }
}
BENCHMARK(BM_DiskCacheLookup);

void
BM_Raid5Striping(benchmark::State& state)
{
    util::Rng rng(11);
    for (auto _ : state) {
        const auto lba = rng.uniformInt(0, 1 << 24);
        benchmark::DoNotOptimize(
            sim::stripeRaid5Data(lba, 64, 8, 16));
    }
}
BENCHMARK(BM_Raid5Striping);

void
BM_DiskServiceRandomReads(benchmark::State& state)
{
    engine::SimKernel events;
    sim::DiskConfig cfg;
    cfg.tech = {400e3, 30e3};
    sim::SimDisk disk(events, cfg);
    util::Rng rng(13);
    std::uint64_t id = 1;
    for (auto _ : state) {
        sim::IoRequest req;
        req.id = id++;
        req.arrival = events.now();
        req.lba = rng.uniformInt(0, disk.totalSectors() - 64);
        req.sectors = 8;
        disk.submit(req);
        events.runAll();
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()));
}
BENCHMARK(BM_DiskServiceRandomReads);

void
BM_SyntheticTraceGeneration(benchmark::State& state)
{
    trace::WorkloadSpec spec;
    spec.requests = std::size_t(state.range(0));
    spec.devices = 8;
    const trace::SyntheticWorkload gen(spec);
    for (auto _ : state)
        benchmark::DoNotOptimize(gen.generate(100'000'000).size());
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SyntheticTraceGeneration)->Arg(10000);

void
BM_GovernorDecide(benchmark::State& state)
{
    thermal::DriveThermalConfig cfg = thermalConfig();
    const dtm::SpeedGovernor gov(cfg,
                                 {15020.0, 18000.0, 21000.0, 24534.0});
    util::Rng rng(19);
    for (auto _ : state) {
        benchmark::DoNotOptimize(gov.decide(
            18000.0, rng.uniform(42.0, 45.5), rng.uniform(0.0, 0.5)));
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()));
}
BENCHMARK(BM_GovernorDecide);

void
BM_ShuffleMapBuild(benchmark::State& state)
{
    trace::WorkloadSpec spec;
    spec.requests = 20000;
    spec.zipfTheta = 1.0;
    const auto tr =
        trace::SyntheticWorkload(spec).generate(100'000'000);
    for (auto _ : state) {
        const trace::ShuffleMap map(tr, 100'000'000, 4096);
        benchmark::DoNotOptimize(map.extents());
    }
}
BENCHMARK(BM_ShuffleMapBuild);

void
BM_AsciiPlotRender(benchmark::State& state)
{
    util::AsciiPlot plot;
    std::vector<std::pair<double, double>> pts;
    for (int i = 0; i < 100; ++i)
        pts.emplace_back(double(i), double(i * i % 997));
    plot.addSeries("series", std::move(pts));
    for (auto _ : state)
        benchmark::DoNotOptimize(plot.str().size());
}
BENCHMARK(BM_AsciiPlotRender);

void
BM_HistogramAdd(benchmark::State& state)
{
    auto h = util::Histogram::paperResponseTimeBins();
    util::Rng rng(17);
    for (auto _ : state)
        h.add(rng.uniform(0.0, 250.0));
    state.SetItemsProcessed(std::int64_t(state.iterations()));
}
BENCHMARK(BM_HistogramAdd);

} // namespace

// Custom main: strip the repo-standard --csv option (google-benchmark
// rejects unknown flags) before initializing, and drop the manifest +
// metrics artifacts beside any other bench's.
int
main(int argc, char** argv)
{
    harness::Bench bench("bench_micro", argc, argv,
                         "Google-benchmark microbenchmarks; unknown "
                         "flags forward to the benchmark library.");
    // Everything the harness does not own is google-benchmark's
    // (--benchmark_filter and friends).
    bench.flags().passThroughUnknown();
    bench.parse();
    std::vector<std::string> extra = bench.flags().extraArgs();
    std::vector<char*> args;
    args.reserve(extra.size() + 1);
    args.push_back(argv[0]);
    for (auto& arg : extra)
        args.push_back(arg.data());
    int filtered = int(args.size());
    benchmark::Initialize(&filtered, args.data());
    if (benchmark::ReportUnrecognizedArguments(filtered, args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return bench.finish();
}
