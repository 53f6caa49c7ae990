#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "core/scenarios.h"
#include "dtm/cosim.h"
#include "fleet/fleet_sim.h"
#include "harness/run_builder.h"
#include "sim/storage_system.h"
#include "util/error.h"

namespace perfbench {

using namespace hddtherm;

namespace {

/// Workload-seed offset for @p seed: zero for kDefaultSeed, so the
/// default seed replays the library's own calibrated traces.
std::uint64_t
seedMix(std::uint64_t seed)
{
    return (seed ^ kDefaultSeed) * 0x9E3779B97F4A7C15ull;
}

/// "%.17g": every digit, so digests compare bit-for-bit.
std::string
exact(double value)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

std::string
count(std::uint64_t value)
{
    return std::to_string(value);
}

/// Disk-level activity summed over the member disks of storage systems.
struct DiskTotals
{
    std::uint64_t readHits = 0;
    std::uint64_t readMisses = 0;
    std::uint64_t seeks = 0;
    std::uint64_t mediaAccesses = 0;
    std::uint64_t diskCompletions = 0;
    double busySec = 0.0;
    double diskSec = 0.0;       ///< Simulated seconds, summed over disks.
    double queueDepthSum = 0.0; ///< avgQueueDepth, summed over disks.
    int disks = 0;
    std::uint64_t logicalCompleted = 0;
    std::uint64_t overflow = 0; ///< Responses beyond the last bin edge.

    void add(const sim::StorageSystem& system)
    {
        const double now = system.events().now();
        for (int i = 0; i < system.diskCount(); ++i) {
            const sim::SimDisk& disk = system.disk(i);
            readHits += disk.cacheStats().readHits;
            readMisses += disk.cacheStats().readMisses;
            seeks += disk.activity().seeks;
            mediaAccesses += disk.activity().mediaAccesses;
            diskCompletions += disk.activity().completions;
            busySec += disk.activity().busySec;
            diskSec += now;
            queueDepthSum += disk.avgQueueDepth(now);
            ++disks;
        }
        const util::Histogram& hist = system.metrics().histogram();
        logicalCompleted += system.metrics().count();
        overflow += hist.binCount(hist.bins());
    }

    void report(std::map<std::string, double>& stats) const
    {
        stats["sim.cache_hit_ratio"] =
            ratio(double(readHits), double(readHits + readMisses));
        stats["sim.seeks_per_req"] =
            ratio(double(seeks), double(logicalCompleted));
        stats["sim.media_per_completion"] =
            ratio(double(mediaAccesses), double(diskCompletions));
        stats["sim.busy_frac"] = ratio(busySec, diskSec);
        stats["sim.avg_queue_depth"] = ratio(queueDepthSum, double(disks));
        stats["sim.overflow_frac"] =
            ratio(double(overflow), double(logicalCompleted));
    }
};

/// The five Figure 4 scenarios for @p seed.
std::vector<core::WorkloadScenario>
fig4Scenarios(std::uint64_t seed)
{
    auto scenarios = core::figure4Scenarios(60000);
    for (auto& scenario : scenarios)
        scenario.workload.seed ^= seedMix(seed);
    return scenarios;
}

class Fig4Replay : public Workload
{
  public:
    explicit Fig4Replay(std::uint64_t seed) : seed_(seed)
    {
        // The library's own Figure 4 path; every repetition's mean must
        // equal it bit for bit.
        for (const auto& scenario : fig4Scenarios(seed_))
            reference_ms_.push_back(
                scenario.run(scenario.baseRpm).meanMs());
    }

    Rep run(DomainSpanSink* sink) override
    {
        Rep rep;
        const Stamp t0 = Stamp::now();
        const auto scenarios = fig4Scenarios(seed_);
        std::vector<std::unique_ptr<sim::StorageSystem>> systems;
        for (const auto& scenario : scenarios)
            systems.push_back(
                std::make_unique<sim::StorageSystem>(scenario.system));
        const Stamp t1 = Stamp::now();
        std::vector<std::vector<sim::IoRequest>> traces;
        for (const auto& scenario : scenarios)
            traces.push_back(scenario.makeTrace().toRequests());
        const Stamp t2 = Stamp::now();

        std::vector<sim::ResponseMetrics> results;
        if (sink)
            sink->begin();
        for (std::size_t i = 0; i < systems.size(); ++i) {
            if (sink)
                systems[i]->events().setTraceSink(sink);
            results.push_back(systems[i]->run(traces[i]));
            if (sink)
                sink->cut();
        }
        const Stamp t3 = Stamp::now();
        rep.setup.build = cpuBetween(t0, t1);
        rep.setup.gen = cpuBetween(t1, t2);
        rep.runSec = cpuBetween(t2, t3);
        rep.runWallSec = secondsBetween(t2.wall, t3.wall);

        DiskTotals totals;
        double err_pct = 0.0;
        for (std::size_t i = 0; i < systems.size(); ++i) {
            const auto& scenario = scenarios[i];
            const sim::StorageSystem& system = *systems[i];
            const sim::ResponseMetrics& metrics = results[i];
            if (sink)
                systems[i]->events().setTraceSink(nullptr);
            totals.add(system);
            rep.attempted += traces[i].size();
            rep.completed += metrics.count();
            rep.simulatedSec += system.events().now();
            err_pct += 100.0 *
                       std::abs(metrics.meanMs() -
                                scenario.paperAvgResponseMs[0]) /
                       scenario.paperAvgResponseMs[0];
            rep.digest += scenario.name +
                          " completed=" + count(metrics.count()) +
                          " mean_ms=" + exact(metrics.meanMs()) +
                          " sim_s=" + exact(system.events().now()) +
                          " events=" + count(system.events().fired()) +
                          "\n";
            if (metrics.count() != traces[i].size())
                rep.errors.push_back(scenario.name + ": " +
                                     count(metrics.count()) + " of " +
                                     count(traces[i].size()) +
                                     " requests completed");
            if (metrics.meanMs() != reference_ms_[i])
                rep.errors.push_back(
                    scenario.name + ": mean " + exact(metrics.meanMs()) +
                    " ms differs from scenario.run()'s " +
                    exact(reference_ms_[i]) + " ms");
        }
        totals.report(rep.stats);
        rep.stats["sim.paper_err_pct"] = err_pct / double(systems.size());
        return rep;
    }

  private:
    std::uint64_t seed_;
    std::vector<double> reference_ms_;
};

/// Simulated day length and request rate of dtm_day.
constexpr double kDaySec = 86400.0;
constexpr double kDayReqPerSec = 2.0;

class DtmDay : public Workload
{
  public:
    explicit DtmDay(std::uint64_t seed) : seed_(seed) {}

    Rep run(DomainSpanSink* sink) override
    {
        Rep rep;
        const Stamp t0 = Stamp::now();
        // diurnal_dtm's governed drive and ladder, stretched to a full
        // day at a light request rate.
        harness::RunSpec spec;
        spec.scenario = "Search-Engine";
        spec.requests = std::size_t(kDayReqPerSec * kDaySec);
        spec.policy = "govern";
        spec.rpm = 24534.0;
        spec.rpmLadder = {15020.0, 18000.0, 21000.0, 24534.0, 26000.0};
        spec.maxSimulatedSec = 4.0 * kDaySec;
        const std::uint64_t mix = seedMix(seed_);
        harness::RunBuilder builder(spec, [mix](core::ExperimentSpec& e) {
            e.system.disk.geometry.diameterInches = 2.6;
            e.system.disk.geometry.platters = 1;
            e.system.disk.rpmChangeSecPerKrpm = 0.02;
            e.workload.arrivalRatePerSec = kDayReqPerSec;
            e.workload.seed ^= mix;
        });
        // diurnal_dtm's 24 -> 31 -> 25 C machine-room day.
        builder.cosim().ambientProfile = {{0.0, 24.0},
                                          {0.35 * kDaySec, 27.0},
                                          {0.55 * kDaySec, 31.0},
                                          {0.70 * kDaySec, 28.0},
                                          {1.00 * kDaySec, 25.0}};
        const Stamp t1 = Stamp::now();
        const auto trace = builder.makeTrace();
        const Stamp t2 = Stamp::now();
        dtm::CoSimEngine engine(builder.cosim());
        engine.start(trace);
        const Stamp t3 = Stamp::now();

        if (sink) {
            engine.system().events().setTraceSink(sink);
            sink->begin();
        }
        engine.advanceToCompletion();
        if (sink) {
            sink->cut();
            engine.system().events().setTraceSink(nullptr);
        }
        const Stamp t4 = Stamp::now();
        rep.setup.build = cpuBetween(t0, t1);
        rep.setup.gen = cpuBetween(t1, t2);
        rep.setup.start = cpuBetween(t2, t3);
        rep.runSec = cpuBetween(t3, t4);
        rep.runWallSec = secondsBetween(t3.wall, t4.wall);

        const dtm::CoSimResult result = engine.result();
        rep.attempted = trace.size();
        rep.completed = result.metrics.count();
        rep.simulatedSec = result.simulatedSec;
        rep.digest = "completed=" + count(result.metrics.count()) +
                     "\nmean_ms=" + exact(result.metrics.meanMs()) +
                     "\nmax_temp_c=" + exact(result.maxTempC) +
                     "\nmean_temp_c=" + exact(result.meanTempC) +
                     "\ngate_events=" + count(result.gateEvents) +
                     "\nspeed_changes=" + count(result.speedChanges) +
                     "\ngated_s=" + exact(result.gatedSec) +
                     "\nsim_s=" + exact(result.simulatedSec) +
                     "\nevents=" + count(engine.system().events().fired()) +
                     "\n";
        if (rep.completed != rep.attempted)
            rep.errors.push_back(count(rep.completed) + " of " +
                                 count(rep.attempted) +
                                 " requests completed");
        if (result.simulatedSec >= spec.maxSimulatedSec)
            rep.errors.push_back("run hit the simulated-time cap");

        DiskTotals totals;
        totals.add(engine.system());
        totals.report(rep.stats);
        rep.stats["dtm.speed_changes"] = double(result.speedChanges);
        rep.stats["dtm.gate_events"] = double(result.gateEvents);
        rep.stats["dtm.gated_s"] = result.gatedSec;
        return rep;
    }

  private:
    std::uint64_t seed_;
};

/// fleet64_ckpt's executor threads and checkpoint cadence.
constexpr int kFleetThreads = 2;
constexpr std::uint64_t kCheckpointEveryEpochs = 56;

/// Checkpoint files in @p dir: count, bytes, and the mean size of a
/// delta relative to a full anchor (file index % anchor_every == 0).
struct CheckpointFiles
{
    std::uint64_t files = 0;
    std::uint64_t bytes = 0;
    double deltaRatio = 0.0;

    CheckpointFiles(const std::string& dir, std::uint64_t anchor_every)
    {
        std::uint64_t anchors = 0, anchor_bytes = 0;
        std::uint64_t deltas = 0, delta_bytes = 0;
        for (const auto& entry : std::filesystem::directory_iterator(dir)) {
            const std::string name = entry.path().filename().string();
            unsigned long long index = 0;
            if (entry.path().extension() != ".hdtsnap" ||
                std::sscanf(name.c_str(), "checkpoint-%llu", &index) != 1)
                continue;
            const std::uint64_t size = entry.file_size();
            ++files;
            bytes += size;
            if (index % anchor_every == 0) {
                ++anchors;
                anchor_bytes += size;
            } else {
                ++deltas;
                delta_bytes += size;
            }
        }
        if (anchors && deltas)
            deltaRatio = (double(delta_bytes) / double(deltas)) /
                         (double(anchor_bytes) / double(anchors));
    }
};

class Fleet64Ckpt : public Workload
{
  public:
    Fleet64Ckpt(std::uint64_t seed, std::string dir)
        : config_(makeConfig(seed)), dir_(std::move(dir))
    {
    }

    Rep run(DomainSpanSink* sink) override
    {
        std::filesystem::remove_all(dir_);
        snap::CheckpointPolicy policy;
        policy.directory = dir_;
        policy.everyEpochs = kCheckpointEveryEpochs;
        policy.delta = true;
        policy.compress = true;
        // Keep every file so their count and sizes can be read back.
        policy.retain = 1 << 20;

        Rep rep;
        const Stamp t0 = Stamp::now();
        fleet::FleetSimulation sim(config_);
        FirstFireProbe probe;
        engine::TraceSink* observer = &probe;
        if (sink) {
            observer = sink;
            sink->begin();
        }
        const Stamp t1 = Stamp::now();
        const fleet::FleetResult result =
            sim.run(kFleetThreads, observer, &policy);
        const Stamp t2 = Stamp::now();
        if (sink)
            sink->cut();
        // Shard construction and per-bay trace generation happen inside
        // run(), before the first epoch event.
        const Stamp first = sink ? sink->firstFire() : probe.firstFire();
        const std::uint64_t fired = sink ? sink->fired() : probe.fired();
        rep.setup.build = cpuBetween(t0, t1);
        rep.setup.gen = cpuBetween(t1, first);
        rep.runSec = cpuBetween(first, t2);
        rep.runWallSec = secondsBetween(first.wall, t2.wall);

        const CheckpointFiles files(dir_, policy.anchorEvery);
        rep.attempted =
            std::uint64_t(result.shards) * config_.workload.requests;
        rep.completed = result.metrics.count();
        rep.simulatedSec = result.simulatedSec;
        rep.digest = "completed=" + count(result.metrics.count()) +
                     "\nmean_ms=" + exact(result.meanLatencyMs) +
                     "\nmax_temp_c=" + exact(result.maxDriveTempC) +
                     "\ngate_events=" + count(result.gateEvents) +
                     "\nspeed_changes=" + count(result.speedChanges) +
                     "\ngated_s=" + exact(result.gatedSec) +
                     "\nsim_s=" + exact(result.simulatedSec) +
                     "\nepochs=" + count(result.epochs) +
                     "\nevents=" + count(fired) +
                     "\ncheckpoints=" + count(files.files) + "\n";
        if (rep.completed != rep.attempted)
            rep.errors.push_back(count(rep.completed) + " of " +
                                 count(rep.attempted) +
                                 " requests completed");
        if (result.simulatedSec >= config_.maxSimulatedSec)
            rep.errors.push_back("run hit the simulated-time cap");
        if (files.files == 0)
            rep.errors.push_back("no checkpoint was written");

        rep.stats["sim.overflow_frac"] =
            result.metrics.histogram().overflowFraction();
        rep.stats["dtm.speed_changes"] = double(result.speedChanges);
        rep.stats["dtm.gate_events"] = double(result.gateEvents);
        rep.stats["dtm.gated_s"] = result.gatedSec;
        rep.stats["fleet.epochs"] = double(result.epochs);
        rep.stats["fleet.executor.tasks"] = double(result.executor.tasks);
        rep.stats["fleet.executor.steals"] = double(result.executor.steals);
        rep.stats["fleet.executor.batches"] =
            double(result.executor.batches);
        rep.stats["snap.checkpoints"] = double(files.files);
        rep.stats["snap.bytes"] = double(files.bytes);
        rep.stats["snap.delta_ratio"] = files.deltaRatio;
        if (sink)
            addEpochSpans(*sink, rep);
        return rep;
    }

  private:
    /// The bench_fleet_scale 64-drive fleet, unchanged: 2 racks x 4
    /// chassis x 8 bays of hot 2.6" drives gated by DTM, 27 C inlet.
    static fleet::FleetConfig makeConfig(std::uint64_t seed)
    {
        fleet::FleetConfig cfg;
        cfg.racks = 2;
        cfg.rack.chassisCount = 4;
        cfg.chassis.bays = 8;
        cfg.rack.inletC = 27.0;
        cfg.bay.system.disk.geometry.diameterInches = 2.6;
        cfg.bay.system.disk.geometry.platters = 1;
        cfg.bay.system.disk.tech = {500e3, 60e3};
        cfg.bay.system.disk.rpm = 24534.0;
        cfg.bay.policy = dtm::DtmPolicy::GateRequests;
        cfg.workload.requests = 4000;
        cfg.workload.arrivalRatePerSec = 100.0;
        cfg.epochSec = 0.5;
        cfg.maxSimulatedSec = 3600.0;
        cfg.seed = seed;
        return cfg;
    }

    /**
     * Epoch host times from the fleet-epoch spans.  At a checkpoint
     * timestamp two events fire: the barrier, scheduled one epoch
     * earlier, and the checkpoint task, scheduled a whole checkpoint
     * period earlier and so carrying the smaller kernel sequence number.
     * That tells checkpointed epochs apart from the outside.
     */
    static void addEpochSpans(const DomainSpanSink& sink, Rep& rep)
    {
        std::vector<double> epoch_ms, checkpoint_ms;
        const auto& spans = sink.spans();
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const double ms =
                double(spans[i].endNs - spans[i].startNs) * 1e-6;
            if (i > 0 && spans[i - 1].when == spans[i].when) {
                const double prev_ms = epoch_ms.back();
                checkpoint_ms.push_back(
                    spans[i - 1].id < spans[i].id ? prev_ms : ms);
                epoch_ms.back() = prev_ms + ms;
            } else {
                epoch_ms.push_back(ms);
            }
        }
        rep.stats["fleet.epoch_host_ms.p50"] = quantile(epoch_ms, 0.5);
        rep.stats["fleet.epoch_host_ms.p90"] = quantile(epoch_ms, 0.9);
        double sum = 0.0;
        for (const double ms : checkpoint_ms)
            sum += ms;
        rep.stats["snap.host_ms_per_checkpoint"] =
            checkpoint_ms.empty() ? 0.0 : sum / double(checkpoint_ms.size());
    }

    fleet::FleetConfig config_;
    std::string dir_;
};

} // namespace

double
quantile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = p * double(values.size() - 1);
    const std::size_t lo = std::size_t(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - double(lo)) * (values[hi] - values[lo]);
}

const std::vector<std::string>&
workloadNames()
{
    static const std::vector<std::string> names = {
        "fig4_replay", "dtm_day", "fleet64_ckpt"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string& name, std::uint64_t seed,
             const std::string& work_dir)
{
    if (name == "fig4_replay")
        return std::make_unique<Fig4Replay>(seed);
    if (name == "dtm_day")
        return std::make_unique<DtmDay>(seed);
    if (name == "fleet64_ckpt")
        return std::make_unique<Fleet64Ckpt>(seed,
                                             work_dir + "/checkpoints");
    throw util::ModelError("unknown workload '" + name + "'");
}

} // namespace perfbench
