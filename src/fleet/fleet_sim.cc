#include "fleet/fleet_sim.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <optional>

#include "engine/kernel.h"
#include "snap/delta.h"
#include "snap/snapshot.h"
#include "snap/state.h"
#include "trace/synth.h"
#include "util/error.h"
#include "util/log.h"
#include "util/random.h"

namespace hddtherm::fleet {

namespace {

/// One drive bay: its position plus the co-simulation advancing it.
struct Shard
{
    BayAddress addr;
    std::unique_ptr<dtm::CoSimEngine> engine;
};

/**
 * The slice of a fleet fault schedule one bay's engine replays itself:
 * sensor and ambient events addressed to the bay, re-targeted to the
 * drive-level form (-1) a CoSimEngine honors.  Airflow and bay-power
 * events stay with the barrier loop.  The bay's noise seed is split from
 * the fleet noise seed by global index, so per-bay noise streams are
 * independent and a pure function of (schedule, bay) — executor-agnostic.
 */
fault::FaultSchedule
bayFaultSchedule(const fault::FaultSchedule& fleet_faults, int global_index)
{
    std::vector<fault::FaultEvent> events;
    for (const auto& e : fleet_faults.events()) {
        switch (e.kind) {
        case fault::FaultKind::AmbientStep:
        case fault::FaultKind::AmbientSpike:
        case fault::FaultKind::SensorStuck:
        case fault::FaultKind::SensorDropout:
        case fault::FaultKind::SensorNoise:
            if (e.appliesTo(global_index)) {
                fault::FaultEvent routed = e;
                routed.target = -1;
                events.push_back(routed);
            }
            break;
        case fault::FaultKind::AirflowDegrade:
        case fault::FaultKind::BayKill:
        case fault::FaultKind::BayRestore:
            break; // resolved at epoch barriers by the fleet loop
        }
    }
    return fault::FaultSchedule(
        std::move(events),
        util::deriveStreamSeed(fleet_faults.noiseSeed(),
                               std::uint64_t(global_index)));
}

/// printf-append onto a checkpoint description string.
void
appendf(std::string& out, const char* fmt, ...)
{
    char buf[256];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof buf, fmt, ap);
    va_end(ap);
    out += buf;
}

/// Section-name prefix for one bay's engine sections.
std::string
bayPrefix(int global_index)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "bay.%d/", global_index);
    return buf;
}

/**
 * One fleet run in flight: the shards, the executor, the fleet-level
 * epoch kernel, and the accumulating result.  run() and resume() share
 * it — a fresh run arms the barrier (and optionally the checkpoint)
 * periodic task itself; a resumed run restores them from the checkpoint
 * by their task kinds, registered here at construction.
 */
struct FleetRun
{
    FleetRun(const FleetConfig& fleet_config, int threads)
        : config(fleet_config),
          chassis_count(std::size_t(config.totalChassis())),
          have_faults(!config.faults.empty()),
          have_bay_power(have_faults && config.faults.hasBayPowerEvents()),
          executor(threads),
          chassis_heat(chassis_count, 0.0),
          airflow_scale(chassis_count, 1.0),
          epoch_domain(epochs.registerDomain("fleet-epoch"))
    {
        epochs.registerTask(snap::kTaskFleetBarrier,
                            [this]() { return barrierTick(); });
        epochs.registerTask(snap::kTaskFleetCheckpoint,
                            [this]() { return checkpointTick(); });
    }

    const FleetConfig& config;
    std::size_t chassis_count;
    bool have_faults;
    bool have_bay_power;
    ShardExecutor executor;
    std::vector<Shard> shards;
    FleetResult result;
    std::vector<double> chassis_heat;
    std::vector<double> airflow_scale;
    engine::SimKernel epochs;
    engine::DomainId epoch_domain;
    std::optional<snap::CheckpointManager> ckpt_mgr;
    std::uint64_t ckpt_index = 0;

    /// Build every shard serially in bay order: thermal calibration
    /// (lazy, shared) resolves on this thread, and engine construction
    /// order never depends on the executor.
    void buildShards()
    {
        const auto bays = enumerateBays(config);
        // Idle chassis air (zero heat) supplies each bay's starting
        // ambient — position in the rack already matters once traffic
        // begins.
        const auto idle_air = resolveChassisAir(
            config, std::vector<double>(chassis_count, 0.0));
        shards.reserve(bays.size());
        for (const auto& addr : bays) {
            dtm::CoSimConfig cfg = config.bay;
            cfg.ambientC =
                idle_air[std::size_t(addr.chassisIndex)].driveAmbientC;
            cfg.maxSimulatedSec = config.maxSimulatedSec;
            if (have_faults) {
                cfg.faults =
                    bayFaultSchedule(config.faults, addr.globalIndex);
            }
            Shard shard;
            shard.addr = addr;
            shard.engine = std::make_unique<dtm::CoSimEngine>(cfg);
            shards.push_back(std::move(shard));
        }
        result.shards = int(shards.size());
        result.chassis.resize(chassis_count);
        for (const auto& shard : shards) {
            auto& report =
                result.chassis[std::size_t(shard.addr.chassisIndex)];
            report.rack = shard.addr.rack;
            report.chassis = shard.addr.chassis;
        }
    }

    /// Regenerate one bay's trace: every stream is a pure function of
    /// (fleet seed, bay index), so fresh runs and resumed runs derive
    /// the identical request sequence from the configuration alone —
    /// checkpoints never need to embed it.
    std::vector<sim::IoRequest> generateWorkload(const Shard& shard) const
    {
        trace::WorkloadSpec spec = config.workload;
        spec.seed = util::deriveStreamSeed(
            config.seed, std::uint64_t(shard.addr.globalIndex));
        spec.devices = config.bay.system.raid == sim::RaidLevel::None
                           ? shard.engine->system().diskCount()
                           : 1;
        const trace::SyntheticWorkload gen(spec);
        return gen.generate(shard.engine->system().logicalSectors())
            .toRequests();
    }

    /// Per-bay workload generation + submission, farmed to the
    /// executor (the schedule cannot perturb the traces).  Fresh runs
    /// only — a resumed run restores the in-flight workload instead.
    void generateAndStart()
    {
        std::vector<ShardExecutor::Task> setup;
        setup.reserve(shards.size());
        for (auto& shard : shards) {
            setup.push_back([this, &shard]() {
                shard.engine->start(generateWorkload(shard));
            });
        }
        executor.runBatch(std::move(setup));

        // Bay-power edges at t = 0 apply before the first epoch, in bay
        // order.
        if (have_bay_power) {
            for (auto& shard : shards) {
                shard.engine->setBayPower(
                    !config.faults.bayKilledAt(0.0,
                                               shard.addr.globalIndex));
            }
        }
    }

    /// One ambient-sync barrier: advance every unfinished shard's
    /// kernel to the epoch timestamp in parallel, then run all
    /// cross-shard coupling on this thread in fixed bay/chassis order
    /// (the determinism contract).
    bool barrierTick()
    {
        const double t = epochs.now();

        std::vector<ShardExecutor::Task> batch;
        batch.reserve(shards.size());
        for (auto& shard : shards) {
            if (!shard.engine->finished()) {
                dtm::CoSimEngine* engine = shard.engine.get();
                batch.push_back([engine, t]() { engine->advanceTo(t); });
            }
        }
        executor.runBatch(std::move(batch));
        ++result.epochs;

        std::fill(chassis_heat.begin(), chassis_heat.end(), 0.0);
        bool all_done = true;
        for (const auto& shard : shards) {
            chassis_heat[std::size_t(shard.addr.chassisIndex)] +=
                shard.engine->heatOutputW();
            all_done = all_done && shard.engine->finished();
        }
        if (have_faults) {
            for (std::size_t ci = 0; ci < chassis_count; ++ci) {
                airflow_scale[ci] =
                    config.faults.coolingScaleAt(t, int(ci));
            }
        }
        const auto air =
            resolveChassisAir(config, chassis_heat, airflow_scale);
        for (auto& shard : shards) {
            const auto ci = std::size_t(shard.addr.chassisIndex);
            if (have_bay_power) {
                shard.engine->setBayPower(
                    !config.faults.bayKilledAt(t, shard.addr.globalIndex));
            }
            shard.engine->setAmbient(air[ci].driveAmbientC);
            result.chassis[ci].peakDriveAmbientC =
                std::max(result.chassis[ci].peakDriveAmbientC,
                         air[ci].driveAmbientC);
        }

        if (all_done)
            return false;
        if (t >= config.maxSimulatedSec) {
            util::logWarn("fleet simulation hit the %.0f s cap with "
                          "unfinished shards; aggregating partial results",
                          config.maxSimulatedSec);
            return false;
        }
        return true;
    }

    /// Body of the kTaskFleetCheckpoint periodic task.  A resumed run without a
    /// policy of its own lets the restored task die on first firing.
    bool checkpointTick()
    {
        if (!ckpt_mgr)
            return false;
        bool all_done = true;
        for (const auto& shard : shards)
            all_done = all_done && shard.engine->finished();
        if (all_done || epochs.now() >= config.maxSimulatedSec)
            return false;
        writeCheckpoint();
        return true;
    }

    /// Write one crash-consistent checkpoint of the whole fleet.
    void writeCheckpoint()
    {
        // Bump the index first so the saved value is the *next* index:
        // a resumed run numbers its checkpoints like the uninterrupted
        // one.
        const std::uint64_t index = ckpt_index++;
        snap::CheckpointWriter out(checkpointConfigHash(config));
        {
            snap::StateWriter meta("meta");
            meta.str("kind", "fleet");
            meta.f64("sim_time", epochs.now());
            out.addSection(std::move(meta));
        }
        {
            snap::StateWriter w("fleet");
            w.u64("epochs", result.epochs);
            w.u64("ckpt_index", ckpt_index);
            std::vector<double> peaks;
            peaks.reserve(chassis_count);
            for (const auto& report : result.chassis)
                peaks.push_back(report.peakDriveAmbientC);
            w.f64vec("chassis_peak_ambient_c", peaks);
            out.addSection(std::move(w));
        }
        for (const auto& shard : shards)
            shard.engine->saveSections(out,
                                       bayPrefix(shard.addr.globalIndex));
        {
            // The fleet kernel last, same contract as the per-bay
            // sections: restoring it re-arms the barrier against
            // already-restored shards.
            snap::StateWriter w("fleet.kernel");
            epochs.saveState(w);
            out.addSection(std::move(w));
        }
        ckpt_mgr->write(out, index);
    }

    /// Restore a whole-fleet checkpoint into freshly built shards.
    void loadCheckpoint(const snap::CheckpointReader& in)
    {
        {
            auto r = in.section("fleet");
            result.epochs = r.u64("epochs");
            ckpt_index = r.u64("ckpt_index");
            const auto peaks = r.f64vec("chassis_peak_ambient_c");
            HDDTHERM_REQUIRE(peaks.size() == chassis_count,
                             "checkpoint section 'fleet': chassis count "
                             "does not match this configuration");
            for (std::size_t ci = 0; ci < chassis_count; ++ci)
                result.chassis[ci].peakDriveAmbientC = peaks[ci];
            HDDTHERM_REQUIRE(r.atEnd(), "checkpoint section 'fleet' has "
                                        "trailing fields");
        }
        // Regenerate every bay's trace in parallel (pure function of the
        // configuration), then restore serially in bay order.
        std::vector<std::vector<sim::IoRequest>> workloads(shards.size());
        {
            std::vector<ShardExecutor::Task> regen;
            regen.reserve(shards.size());
            for (std::size_t i = 0; i < shards.size(); ++i) {
                regen.push_back([this, &workloads, i]() {
                    workloads[i] = generateWorkload(shards[i]);
                });
            }
            executor.runBatch(std::move(regen));
        }
        for (std::size_t i = 0; i < shards.size(); ++i)
            shards[i].engine->loadSections(
                in, workloads[i], bayPrefix(shards[i].addr.globalIndex));
        {
            auto r = in.section("fleet.kernel");
            epochs.loadState(r);
        }
    }

    /// Drain the epoch loop and aggregate in bay order on this thread.
    FleetResult finish()
    {
        epochs.runAll();
        // A completed run leaves every queued checkpoint durable (and any
        // writer-thread failure surfaces here, not in a destructor).
        if (ckpt_mgr)
            ckpt_mgr->flush();
        for (const auto& shard : shards) {
            const dtm::CoSimResult r = shard.engine->result();
            auto& report =
                result.chassis[std::size_t(shard.addr.chassisIndex)];
            result.metrics.merge(r.metrics);
            result.gateEvents += r.gateEvents;
            result.speedChanges += r.speedChanges;
            result.gatedSec += r.gatedSec;
            result.invalidReadings += r.invalidReadings;
            result.failSafeActivations += r.failSafeActivations;
            result.failSafeSec += r.failSafeSec;
            result.maxDriveTempC =
                std::max(result.maxDriveTempC, r.maxTempC);
            result.simulatedSec =
                std::max(result.simulatedSec, r.simulatedSec);
            report.peakDriveTempC =
                std::max(report.peakDriveTempC, r.maxTempC);
            report.gateEvents += r.gateEvents;
            report.gatedSec += r.gatedSec;
        }
        result.meanLatencyMs = result.metrics.meanMs();
        result.p95LatencyMs = result.metrics.histogram().quantile(0.95);
        result.executor = executor.stats();
        return std::move(result);
    }
};

/// Fleet checkpoint cadence is epoch-based; reject second-based policies
/// early so the mistake surfaces before a run burns time.
void
validateFleetPolicy(const snap::CheckpointPolicy& policy)
{
    HDDTHERM_REQUIRE(policy.everyEpochs >= 1,
                     "fleet checkpoint cadence is everyEpochs (>= 1)");
    HDDTHERM_REQUIRE(policy.everySec == 0.0,
                     "everySec is the standalone-engine cadence; fleets "
                     "checkpoint on epoch boundaries");
}

} // namespace

FleetSimulation::FleetSimulation(const FleetConfig& config)
    : config_(config)
{
    config_.validate();
    // The bay template is validated eagerly so a bad fleet fails at
    // construction, not at run() after workload generation.
    dtm::CoSimulation probe(config_.bay);
    (void)probe;
}

FleetResult
FleetSimulation::run(int threads, engine::TraceSink* epoch_trace,
                     const snap::CheckpointPolicy* checkpoints)
{
    FleetRun run(config_, threads);
    if (checkpoints) {
        validateFleetPolicy(*checkpoints);
        run.ckpt_mgr.emplace(*checkpoints);
    }
    run.buildShards();
    run.generateAndStart();
    run.epochs.setTraceSink(epoch_trace);
    // The epoch loop: the ambient-sync barrier is a periodic task in
    // the fleet-level kernel's "fleet-epoch" clock domain.  It is armed
    // before the checkpoint task, fixing the tie order at coincident
    // timestamps once and for all (checkpoints restore both by kind).
    run.epochs.schedulePeriodic(run.epoch_domain, config_.epochSec,
                                snap::kTaskFleetBarrier);
    if (run.ckpt_mgr) {
        run.epochs.schedulePeriodic(
            run.epoch_domain,
            config_.epochSec * double(run.ckpt_mgr->policy().everyEpochs),
            snap::kTaskFleetCheckpoint);
    }
    return run.finish();
}

FleetResult
FleetSimulation::resume(const std::string& checkpoint_path, int threads,
                        engine::TraceSink* epoch_trace,
                        const snap::CheckpointPolicy* checkpoints)
{
    // Resolving the chain makes resuming from a delta leaf transparent:
    // a full checkpoint resolves to itself.
    snap::CheckpointReader in = snap::resolveCheckpointChain(checkpoint_path);
    HDDTHERM_REQUIRE(in.configHash() == checkpointConfigHash(config_),
                     "checkpoint '" + checkpoint_path +
                         "' was written under a different fleet "
                         "configuration (config hash mismatch)");
    FleetRun run(config_, threads);
    if (checkpoints) {
        validateFleetPolicy(*checkpoints);
        run.ckpt_mgr.emplace(*checkpoints);
    }
    run.buildShards();
    run.epochs.setTraceSink(epoch_trace);
    run.loadCheckpoint(in);
    // The restored ckpt_index is the *next* index to write; prime the
    // manager so the first post-resume delta diffs against this leaf.
    if (run.ckpt_mgr)
        run.ckpt_mgr->seedDelta(checkpoint_path, run.ckpt_index);
    return run.finish();
}

std::string
checkpointDescription(const FleetConfig& config)
{
    // v2 with the bays' cosim-v2: v1 checkpoints are refused by the hash.
    std::string d = "fleet-v2";
    appendf(d, "|racks=%d|chassis=%d|bays=%d", config.racks,
            config.rack.chassisCount, config.chassis.bays);
    appendf(d, "|inlet=%.17g|preheat=%.17g", config.rack.inletC,
            config.rack.preheatFraction);
    appendf(d, "|cfm=%.17g|recirc=%.17g|offset=%.17g",
            config.chassis.airflowCfm,
            config.chassis.recirculationFraction,
            config.chassis.inletOffsetC);
    appendf(d, "|seed=%llu|epoch=%.17g|max_sec=%.17g",
            static_cast<unsigned long long>(config.seed), config.epochSec,
            config.maxSimulatedSec);
    const trace::WorkloadSpec& w = config.workload;
    appendf(d, "|wl=%s:%d:%zu:%.17g:%.17g:%.17g:%d:%d:%d:%.17g:%.17g:%d:"
               "%.17g:%.17g:%llu",
            w.name.c_str(), w.devices, w.requests, w.arrivalRatePerSec,
            w.burstiness, w.readFraction, w.minSectors, w.meanSectors,
            w.maxSectors, w.sizeSigma, w.sequentialFraction, w.regions,
            w.zipfTheta, w.deviceZipfTheta,
            static_cast<unsigned long long>(w.seed));
    appendf(d, "|noise_seed=%llu",
            static_cast<unsigned long long>(config.faults.noiseSeed()));
    d += "|faults=";
    for (const auto& e : config.faults.events()) {
        appendf(d, "%.17g:%d:%.17g:%.17g:%d,", e.timeSec, int(e.kind),
                e.value, e.durationSec, e.target);
    }
    d += "|bay={";
    d += dtm::checkpointDescription(config.bay);
    d += "}";
    return d;
}

std::uint64_t
checkpointConfigHash(const FleetConfig& config)
{
    const std::string d = checkpointDescription(config);
    return snap::fnv1a64(d.data(), d.size());
}

} // namespace hddtherm::fleet
