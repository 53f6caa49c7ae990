#include "dtm/cosim.h"

#include "thermal/envelope.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <limits>

#include "obs/metrics.h"
#include "snap/delta.h"
#include "snap/snapshot.h"
#include "snap/state.h"
#include "util/error.h"
#include "util/log.h"

namespace hddtherm::dtm {

namespace {

/// Shared construction-time validation (CoSimulation and CoSimEngine).
void
validateConfig(const CoSimConfig& config)
{
    HDDTHERM_REQUIRE(config.controlIntervalSec > 0.0,
                     "control interval must be positive");
    HDDTHERM_REQUIRE(config.resumeThresholdC < config.gateThresholdC,
                     "hysteresis band is inverted");
    HDDTHERM_REQUIRE(config.warmupFraction >= 0.0 &&
                         config.warmupFraction < 1.0,
                     "warm-up fraction must be in [0, 1)");
    HDDTHERM_REQUIRE(config.failSafeInvalidTicks >= 1,
                     "fail-safe needs at least one invalid tick");
    config.faults.validate();
    if (config.policy == DtmPolicy::GateAndLowRpm) {
        HDDTHERM_REQUIRE(config.lowRpm > 0.0 &&
                             config.lowRpm < config.system.disk.rpm,
                         "low RPM must be positive and below full speed");
    }
    if (config.policy == DtmPolicy::GovernSpeed) {
        HDDTHERM_REQUIRE(config.rpmLadder.size() >= 2,
                         "speed governor needs a ladder of speeds");
    }
}

/**
 * Order-sensitive FNV-1a fingerprint of a workload in caller order.
 * Checkpoints record this instead of embedding the trace: the trace is a
 * pure function of the configuration seed, so resume regenerates it and
 * validates the bytes it would have fed match the bytes the checkpointed
 * run was feeding.
 */
std::uint64_t
workloadFingerprint(const std::vector<sim::IoRequest>& workload)
{
    std::uint64_t hash = 14695981039346656037ull;
    for (const auto& req : workload) {
        std::uint64_t words[5];
        sim::packIoRequest(req, words);
        hash = snap::fnv1a64(words, sizeof words, hash);
    }
    return hash;
}

/// One thermal model stands in for every (symmetric) member disk; disk 0
/// supplies the measured VCM duty.
thermal::DriveThermalConfig
thermalConfigFor(const CoSimConfig& config)
{
    thermal::DriveThermalConfig tcfg;
    tcfg.geometry = config.system.disk.geometry;
    tcfg.rpm = config.system.disk.rpm;
    tcfg.ambientC = config.ambientC;
    tcfg.vcmDuty = 1.0;
    tcfg.coolingScale =
        thermal::coolingScaleForPlatters(tcfg.geometry.platters);
    return tcfg;
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

} // namespace

const char*
dtmPolicyName(DtmPolicy policy)
{
    switch (policy) {
      case DtmPolicy::None:
        return "none";
      case DtmPolicy::GateRequests:
        return "gate-vcm";
      case DtmPolicy::GateAndLowRpm:
        return "gate-vcm+low-rpm";
      case DtmPolicy::GovernSpeed:
        return "speed-governor";
    }
    return "unknown";
}

CoSimEngine::CoSimEngine(const CoSimConfig& config)
    : config_((validateConfig(config), config)),
      system_(config_.system),
      thermal_domain_(system_.events().registerDomain("thermal")),
      model_(thermalConfigFor(config_))
{
    if (config_.policy == DtmPolicy::GovernSpeed) {
        governor_.emplace(model_.config(), config_.rpmLadder,
                          config_.envelopeC);
        // Start at the fastest full-duty-safe rung.
        const double start = governor_->maxSustainableRpm(1.0);
        system_.changeRpmAll(start);
        model_.setRpm(start);
    }
    if (config_.startAtSteadyState) {
        // The drive has been busy.  A DTM-guarded drive has been held at
        // (or below) the envelope by its policy; an unguarded drive simply
        // sits at its worst-case operating steady state.
        double start_air = model_.steadyAirTempC();
        if (config_.policy != DtmPolicy::None)
            start_air = std::min(start_air, config_.envelopeC);
        model_.settleWithAirAt(start_air);
    }
    if (!config_.ambientProfile.empty()) {
        ambient_schedule_.emplace(config_.ambientProfile,
                                  util::PiecewiseLinear::Extrapolate::Clamp);
    }
    if (!config_.faults.empty())
        fault_player_.emplace(config_.faults);
    // Both periodic tasks are registered up front, so a checkpoint
    // restores them by kind.
    system_.events().registerTask(snap::kTaskDtmTick,
                                  [this]() { return tick(); });
    system_.events().registerTask(snap::kTaskDtmCheckpoint,
                                  [this]() { return checkpointTick(); });
}

void
CoSimEngine::start(const std::vector<sim::IoRequest>& workload)
{
    HDDTHERM_REQUIRE(!workload.empty(), "empty workload");
    HDDTHERM_REQUIRE(!started_, "CoSimEngine::start called twice");
    started_ = true;
    workload_size_ = workload.size();
    warmup_count_ =
        std::size_t(config_.warmupFraction * double(workload.size()));
    system_.setCompletionCallback([this](const sim::IoCompletion&) {
        if (++completed_ == warmup_count_)
            system_.resetMetrics();
    });
    // The fingerprint covers the caller's order (what a resume will
    // re-supply); the feed order is arrival order, stable so same-time
    // requests keep the caller's order.
    workload_hash_ = workloadFingerprint(workload);
    workload_ = workload;
    std::stable_sort(workload_.begin(), workload_.end(),
                     [](const sim::IoRequest& a, const sim::IoRequest& b) {
                         return a.arrival < b.arrival;
                     });
    // Prime the feed window before arming the periodic tasks, so the
    // first arrivals take the lowest sequence numbers (as an eager
    // submit would) and each control tick tops the window up from there.
    feedArrivals(feedHorizon());
    // The DTM control loop is a periodic task in the kernel's thermal
    // domain: sensor sampling, governor decisions, and fault-player
    // updates all happen at the tick's timestamp, interleaved with the
    // storage domain's request events on the one shared clock.
    system_.events().schedulePeriodic(thermal_domain_,
                                      config_.controlIntervalSec,
                                      snap::kTaskDtmTick);
    // The checkpoint task is armed after the control loop, at the SAME
    // period: at every coincident timestamp it fires second (the
    // sequence number breaks the tie), captures the post-tick state, and
    // stops exactly when the control loop does — so its last event never
    // advances the clock past the bare run's horizon.  Its own counter
    // decides which firings actually write (see checkpointTick).
    if (ckpt_mgr_) {
        system_.events().schedulePeriodic(thermal_domain_,
                                          config_.controlIntervalSec,
                                          snap::kTaskDtmCheckpoint);
    }
}

bool
CoSimEngine::tick()
{
    const engine::SimTime now = system_.events().now();
    const double dt = now - last_tick_;
    last_tick_ = now;

    // Top up the arrival feed window first: the window is two control
    // intervals, so every arrival the kernel can reach before the next
    // tick is already scheduled when this tick returns.
    feedArrivals(feedHorizon());

    // Smooth the per-interval duty for governor decisions: raw 100 ms
    // windows swing between 0 and 1 on bursty traffic and would make the
    // ladder oscillate (each spindle transition stalls the disk).
    constexpr double duty_tau = 5.0;

    if (dt > 0.0) {
        if (ambient_schedule_)
            model_.setAmbient((*ambient_schedule_)(now));
        if (fault_player_) {
            model_.setCoolingFaultScale(fault_player_->coolingScaleAt(now));
            model_.setAmbientOffsetC(fault_player_->ambientOffsetAt(now));
        }
        // Measure the VCM duty over the last interval from disk 0.
        const double seek_total = system_.disk(0).activity().seekSec;
        const double duty =
            std::clamp((seek_total - last_seek_total_) / dt, 0.0, 1.0);
        last_seek_total_ = seek_total;
        duty_weighted_ += duty * dt;
        const double alpha = std::min(1.0, dt / duty_tau);
        duty_ewma_ += alpha * (duty - duty_ewma_);
        model_.setVcmDuty(duty);
        // The kernel owns the clock; the thermal stepper just follows it.
        model_.advanceTo(now, config_.thermalDtSec);

        // Physical-temperature statistics always track the truth; policy
        // decisions below only ever see the (possibly faulted) sensor.
        const double temp = model_.airTempC();
        temp_integral_ += temp * dt;
        partial_.maxTempC = std::max(partial_.maxTempC, temp);
        if (temp > config_.envelopeC)
            partial_.envelopeExceededSec += dt;
        if (gated_)
            partial_.gatedSec += dt;
        if (fail_safe_)
            partial_.failSafeSec += dt;

        fault::SensorReading reading{temp, true};
        if (fault_player_)
            reading = fault_player_->sense(now, temp);
        if (reading.valid) {
            invalid_run_ = 0;
        } else {
            ++partial_.invalidReadings;
            ++invalid_run_;
        }

        // A powered-off bay has no spindle to govern and no gate to trim.
        if (powered_)
            decidePolicy(reading);
    }

    if (completed_ >= workload_size_)
        return false;
    if (now >= config_.maxSimulatedSec) {
        util::logWarn("co-simulation hit the %.0f s safety cap with "
                      "%zu/%zu requests done; releasing gates",
                      config_.maxSimulatedSec, completed_,
                      workload_size_);
        // The control loop dies here but the kernel still drains every
        // pending event; schedule the rest of the trace so the capped
        // run completes the same request set an eager submit would.
        feedArrivals(std::numeric_limits<double>::infinity());
        system_.gateAll(false);
        return false;
    }
    return true;
}

void
CoSimEngine::feedArrivals(double until)
{
    while (feed_next_ < workload_.size() &&
           workload_[feed_next_].arrival <= until) {
        system_.submit(workload_[feed_next_]);
        ++feed_next_;
    }
}

double
CoSimEngine::feedHorizon() const
{
    return system_.events().now() + 2.0 * config_.controlIntervalSec;
}

void
CoSimEngine::decidePolicy(const fault::SensorReading& reading)
{
    if (config_.policy == DtmPolicy::None)
        return;

    // Fail-safe: too many consecutive blind ticks throttle to the safe
    // floor; the first valid reading hands control back to the policy
    // (which releases the floor through its own hysteresis).
    if (!fail_safe_ && invalid_run_ >= config_.failSafeInvalidTicks) {
        fail_safe_ = true;
        ++partial_.failSafeActivations;
        HDDTHERM_OBS_COUNT("dtm.fail_safe.entry");
        enterFailSafeFloor();
    } else if (fail_safe_ && reading.valid) {
        fail_safe_ = false;
    }
    if (fail_safe_ || !reading.valid)
        return; // hold the last actuation while blind

    const double temp = reading.valueC;
    if (config_.policy == DtmPolicy::GovernSpeed) {
        const double target =
            governor_->decide(model_.config().rpm, temp, duty_ewma_);
        if (std::fabs(target - model_.config().rpm) > 1e-9) {
            system_.changeRpmAll(target);
            model_.setRpm(target);
            ++partial_.speedChanges;
            HDDTHERM_OBS_COUNT("dtm.governor.speed_change");
        }
    } else {
        if (!gated_ && temp >= config_.gateThresholdC) {
            gated_ = true;
            ++partial_.gateEvents;
            HDDTHERM_OBS_COUNT("dtm.gate.engage");
            applyGates();
            if (config_.policy == DtmPolicy::GateAndLowRpm) {
                system_.changeRpmAll(config_.lowRpm);
                model_.setRpm(config_.lowRpm);
            }
        } else if (gated_ && temp <= config_.resumeThresholdC) {
            gated_ = false;
            HDDTHERM_OBS_COUNT("dtm.gate.disengage");
            if (config_.policy == DtmPolicy::GateAndLowRpm) {
                system_.changeRpmAll(config_.system.disk.rpm);
                model_.setRpm(config_.system.disk.rpm);
            }
            applyGates();
        }
    }
}

void
CoSimEngine::enterFailSafeFloor()
{
    if (config_.policy == DtmPolicy::GovernSpeed) {
        const double floor_rpm = governor_->rpmAt(0);
        if (std::fabs(floor_rpm - model_.config().rpm) > 1e-9) {
            system_.changeRpmAll(floor_rpm);
            model_.setRpm(floor_rpm);
            ++partial_.speedChanges;
            HDDTHERM_OBS_COUNT("dtm.governor.speed_change");
        }
    } else if (!gated_) {
        gated_ = true;
        ++partial_.gateEvents;
        HDDTHERM_OBS_COUNT("dtm.gate.engage");
        applyGates();
        if (config_.policy == DtmPolicy::GateAndLowRpm) {
            system_.changeRpmAll(config_.lowRpm);
            model_.setRpm(config_.lowRpm);
        }
    }
}

void
CoSimEngine::advanceTo(engine::SimTime t)
{
    HDDTHERM_REQUIRE(started_, "CoSimEngine::advanceTo before start");
    system_.events().runUntil(t);
}

void
CoSimEngine::advanceToCompletion()
{
    HDDTHERM_REQUIRE(started_, "CoSimEngine::advanceToCompletion before "
                               "start");
    system_.runAll();
    // A completed run leaves every queued checkpoint durable (and any
    // writer-thread failure surfaces here, not in a destructor).
    if (ckpt_mgr_)
        ckpt_mgr_->flush();
}

bool
CoSimEngine::finished() const
{
    return started_ && completed_ >= workload_size_;
}

double
CoSimEngine::heatOutputW() const
{
    return model_.totalPowerW() * double(system_.diskCount());
}

bool
CoSimEngine::setAmbient(double ambient_c)
{
    // An ambientProfile owns the ambient for the whole run: external
    // re-points are rejected (not silently dropped) so callers can tell.
    if (ambient_schedule_)
        return false;
    model_.setAmbient(ambient_c);
    return true;
}

void
CoSimEngine::setBayPower(bool on)
{
    if (powered_ == on)
        return;
    powered_ = on;
    model_.setPowered(on);
    applyGates();
}

CoSimResult
CoSimEngine::result() const
{
    CoSimResult result = partial_;
    result.metrics = system_.metrics();
    result.simulatedSec = system_.events().now();
    if (result.simulatedSec > 0.0) {
        result.meanTempC = temp_integral_ / result.simulatedSec;
        result.meanVcmDuty = duty_weighted_ / result.simulatedSec;
    }
    return result;
}

void
CoSimEngine::enableCheckpoints(const snap::CheckpointPolicy& policy)
{
    HDDTHERM_REQUIRE(!started_,
                     "enable checkpoints before CoSimEngine::start");
    HDDTHERM_REQUIRE(policy.everySec > 0.0,
                     "standalone checkpoint cadence is everySec "
                     "(everyEpochs is a fleet concept)");
    ckpt_mgr_.emplace(policy);
    // The cadence is quantized to control ticks: the checkpoint task
    // fires in lockstep with the control loop (see checkpointTick).
    ckpt_every_ticks_ = std::max<std::uint64_t>(
        1, std::uint64_t(std::llround(policy.everySec /
                                      config_.controlIntervalSec)));
    ckpt_ticks_left_ = ckpt_every_ticks_;
}

void
CoSimEngine::saveSections(snap::CheckpointWriter& out,
                          const std::string& prefix) const
{
    HDDTHERM_REQUIRE(started_,
                     "CoSimEngine::saveSections before start: nothing "
                     "is in flight yet");
    {
        snap::StateWriter w(prefix + "dtm.cosim");
        w.u64("workload_size", workload_size_);
        w.u64("workload_hash", workload_hash_);
        w.u64("feed_next", feed_next_);
        w.u64("completed", completed_);
        w.u64("warmup_count", warmup_count_);
        w.boolean("gated", gated_);
        w.boolean("powered", powered_);
        w.boolean("fail_safe", fail_safe_);
        w.i64("invalid_run", invalid_run_);
        w.f64("last_seek_total", last_seek_total_);
        w.f64("duty_weighted", duty_weighted_);
        w.f64("duty_ewma", duty_ewma_);
        w.f64("temp_integral", temp_integral_);
        w.f64("last_tick", last_tick_);
        w.u64("ckpt_index", ckpt_index_);
        w.u64("ckpt_ticks_left", ckpt_ticks_left_);
        w.u64("speed_changes", partial_.speedChanges);
        w.f64("max_temp_c", partial_.maxTempC);
        w.f64("envelope_exceeded_sec", partial_.envelopeExceededSec);
        w.f64("gated_sec", partial_.gatedSec);
        w.u64("gate_events", partial_.gateEvents);
        w.u64("invalid_readings", partial_.invalidReadings);
        w.u64("fail_safe_activations", partial_.failSafeActivations);
        w.f64("fail_safe_sec", partial_.failSafeSec);
        out.addSection(std::move(w));
    }
    {
        snap::StateWriter w(prefix + "sim.system");
        system_.saveState(w);
        out.addSection(std::move(w));
    }
    {
        snap::StateWriter w(prefix + "thermal.model");
        model_.saveState(w);
        out.addSection(std::move(w));
    }
    if (fault_player_) {
        snap::StateWriter w(prefix + "fault.player");
        fault_player_->saveState(w);
        out.addSection(std::move(w));
    }
    {
        // Kernel last: its restore re-arms events against the modules
        // above, which must already carry their saved state.
        snap::StateWriter w(prefix + "engine.kernel");
        system_.events().saveState(w);
        out.addSection(std::move(w));
    }
}

void
CoSimEngine::loadSections(const snap::CheckpointReader& in,
                          const std::vector<sim::IoRequest>& workload,
                          const std::string& prefix)
{
    HDDTHERM_REQUIRE(!started_,
                     "CoSimEngine::loadSections needs a freshly "
                     "constructed engine");
    {
        auto r = in.section(prefix + "dtm.cosim");
        workload_size_ = r.u64("workload_size");
        workload_hash_ = r.u64("workload_hash");
        feed_next_ = r.u64("feed_next");
        completed_ = r.u64("completed");
        warmup_count_ = r.u64("warmup_count");
        gated_ = r.boolean("gated");
        powered_ = r.boolean("powered");
        fail_safe_ = r.boolean("fail_safe");
        invalid_run_ = int(r.i64("invalid_run"));
        last_seek_total_ = r.f64("last_seek_total");
        duty_weighted_ = r.f64("duty_weighted");
        duty_ewma_ = r.f64("duty_ewma");
        temp_integral_ = r.f64("temp_integral");
        last_tick_ = r.f64("last_tick");
        ckpt_index_ = r.u64("ckpt_index");
        ckpt_ticks_left_ = r.u64("ckpt_ticks_left");
        partial_.speedChanges = r.u64("speed_changes");
        partial_.maxTempC = r.f64("max_temp_c");
        partial_.envelopeExceededSec = r.f64("envelope_exceeded_sec");
        partial_.gatedSec = r.f64("gated_sec");
        partial_.gateEvents = r.u64("gate_events");
        partial_.invalidReadings = r.u64("invalid_readings");
        partial_.failSafeActivations = r.u64("fail_safe_activations");
        partial_.failSafeSec = r.f64("fail_safe_sec");
        HDDTHERM_REQUIRE(r.atEnd(), "checkpoint section '" +
                                        r.section() +
                                        "' has trailing fields");
    }
    // The checkpoint carries only the feed cursor and a fingerprint; the
    // caller re-supplies the trace.  Validate it is byte-for-byte the
    // trace the checkpointed run was feeding before trusting the cursor.
    HDDTHERM_REQUIRE(workload.size() == workload_size_,
                     "checkpoint section '" + prefix +
                         "dtm.cosim': re-supplied workload has " +
                         std::to_string(workload.size()) +
                         " requests, checkpoint expects " +
                         std::to_string(workload_size_));
    HDDTHERM_REQUIRE(workloadFingerprint(workload) == workload_hash_,
                     "checkpoint section '" + prefix +
                         "dtm.cosim': re-supplied workload does not match "
                         "the checkpointed run's trace (fingerprint "
                         "mismatch)");
    HDDTHERM_REQUIRE(feed_next_ <= workload_size_,
                     "checkpoint section '" + prefix +
                         "dtm.cosim': feed cursor past the workload end");
    workload_ = workload;
    std::stable_sort(workload_.begin(), workload_.end(),
                     [](const sim::IoRequest& a, const sim::IoRequest& b) {
                         return a.arrival < b.arrival;
                     });
    {
        auto r = in.section(prefix + "sim.system");
        system_.loadState(r);
    }
    {
        auto r = in.section(prefix + "thermal.model");
        model_.loadState(r);
    }
    if (fault_player_) {
        auto r = in.section(prefix + "fault.player");
        fault_player_->loadState(r);
    }
    // The mutators the restored state implies have already been applied
    // through loadState (RPM, gates, power); re-assert the gate from the
    // restored control flags so both authorities agree.
    applyGates();
    started_ = true;
    system_.setCompletionCallback([this](const sim::IoCompletion&) {
        if (++completed_ == warmup_count_)
            system_.resetMetrics();
    });
    {
        auto r = in.section(prefix + "engine.kernel");
        system_.events().loadState(r);
    }
}

void
CoSimEngine::restoreFromCheckpoint(const std::string& path,
                                   const std::vector<sim::IoRequest>& workload)
{
    // Resolving the chain makes resuming from a delta leaf transparent:
    // a full checkpoint resolves to itself.
    snap::CheckpointReader in = snap::resolveCheckpointChain(path);
    HDDTHERM_REQUIRE(in.configHash() == checkpointConfigHash(config_),
                     "checkpoint '" + path +
                         "' was written under a different configuration "
                         "(config hash mismatch)");
    loadSections(in, workload);
    // The restored ckpt_index_ is the *next* index to write; prime the
    // manager so the first post-resume delta diffs against this leaf.
    if (ckpt_mgr_)
        ckpt_mgr_->seedDelta(path, ckpt_index_);
}

std::string
CoSimEngine::writeCheckpoint()
{
    const std::string path = queueCheckpoint();
    // The public API is synchronous: the file exists when it returns.
    ckpt_mgr_->flush();
    return path;
}

std::string
CoSimEngine::queueCheckpoint()
{
    HDDTHERM_REQUIRE(ckpt_mgr_.has_value(),
                     "writeCheckpoint without enableCheckpoints");
    // Bump the index first so the saved value is the *next* index: a
    // resumed run then numbers its checkpoints exactly like the
    // uninterrupted one.
    const std::uint64_t index = ckpt_index_++;
    snap::CheckpointWriter out(checkpointConfigHash(config_));
    {
        snap::StateWriter meta("meta");
        meta.str("kind", "dtm.cosim");
        meta.f64("sim_time", now());
        out.addSection(std::move(meta));
    }
    saveSections(out);
    return ckpt_mgr_->write(out, index);
}

bool
CoSimEngine::checkpointTick()
{
    // A restored task in a run resumed without enableCheckpoints stays
    // resolvable but dies on its first firing.
    if (!ckpt_mgr_)
        return false;
    // Mirror tick()'s stop condition exactly: both tasks then die at the
    // same timestamp and runAll() drains to the same final time as a
    // run without checkpointing.
    if (finished() || system_.events().now() >= config_.maxSimulatedSec)
        return false;
    if (--ckpt_ticks_left_ == 0) {
        // Reset before writing so the saved countdown is the full
        // period, as the resumed run must observe it.  The periodic path
        // queues without flushing: the fsync overlaps simulation.
        ckpt_ticks_left_ = ckpt_every_ticks_;
        queueCheckpoint();
        HDDTHERM_OBS_COUNT("snap.checkpoint.written");
    }
    return true;
}

std::string
checkpointDescription(const CoSimConfig& config)
{
    // v2: kernel events are saved as records, arrivals in the
    // controller's table; v1 checkpoints are refused by the hash.
    std::string d = "cosim-v2";
    appendf(d, "|policy=%s", dtmPolicyName(config.policy));
    appendf(d, "|envelope=%.17g", config.envelopeC);
    appendf(d, "|gate=%.17g|resume=%.17g", config.gateThresholdC,
            config.resumeThresholdC);
    appendf(d, "|low_rpm=%.17g", config.lowRpm);
    d += "|ladder=";
    for (double rpm : config.rpmLadder)
        appendf(d, "%.17g,", rpm);
    appendf(d, "|ambient=%.17g", config.ambientC);
    d += "|ambient_profile=";
    for (const auto& [t, c] : config.ambientProfile)
        appendf(d, "%.17g:%.17g,", t, c);
    appendf(d, "|control=%.17g|thermal_dt=%.17g",
            config.controlIntervalSec, config.thermalDtSec);
    appendf(d, "|steady_start=%d", config.startAtSteadyState ? 1 : 0);
    appendf(d, "|max_sec=%.17g|warmup=%.17g", config.maxSimulatedSec,
            config.warmupFraction);
    appendf(d, "|fail_safe_ticks=%d", config.failSafeInvalidTicks);

    const sim::SystemConfig& sys = config.system;
    appendf(d, "|disks=%d|raid=%d|stripe=%d", sys.disks, int(sys.raid),
            sys.stripeSectors);
    appendf(d, "|wb=%d:%.17g", sys.immediateWriteReport ? 1 : 0,
            sys.writeReportLatencyMs);
    const sim::DiskConfig& disk = sys.disk;
    appendf(d, "|geom=%.17g:%.17g:%d:%.17g", disk.geometry.diameterInches,
            disk.geometry.innerRatio, disk.geometry.platters,
            disk.geometry.strokeEfficiency);
    appendf(d, "|tech=%.17g:%.17g|zones=%d|rpm=%.17g", disk.tech.bpi,
            disk.tech.tpi, disk.zones, disk.rpm);
    if (disk.seekProfile) {
        appendf(d, "|seek=%.17g:%.17g:%.17g",
                disk.seekProfile->trackToTrackMs, disk.seekProfile->averageMs,
                disk.seekProfile->fullStrokeMs);
    } else {
        d += "|seek=default";
    }
    appendf(d, "|head_switch=%.17g|overhead=%.17g|bus=%.17g",
            disk.headSwitchMs, disk.controllerOverheadMs, disk.busMBps);
    appendf(d, "|cache=%zu:%d:%d", disk.cacheBytes, disk.cacheSegments,
            disk.readAheadToTrackEnd ? 1 : 0);
    appendf(d, "|sched=%s", sim::schedulerPolicyName(disk.scheduler));
    appendf(d, "|rpm_change=%.17g|idle_gaps=%d", disk.rpmChangeSecPerKrpm,
            disk.recordIdleGaps ? 1 : 0);

    appendf(d, "|noise_seed=%llu",
            static_cast<unsigned long long>(config.faults.noiseSeed()));
    d += "|faults=";
    for (const auto& e : config.faults.events()) {
        appendf(d, "%.17g:%d:%.17g:%.17g:%d,", e.timeSec, int(e.kind),
                e.value, e.durationSec, e.target);
    }
    return d;
}

std::uint64_t
checkpointConfigHash(const CoSimConfig& config)
{
    const std::string d = checkpointDescription(config);
    return snap::fnv1a64(d.data(), d.size());
}

fault::EmergencyReport
emergencyReport(const CoSimResult& run)
{
    fault::EmergencyReport report;
    report.simulatedSec = run.simulatedSec;
    report.maxTempC = run.maxTempC;
    report.envelopeExceededSec = run.envelopeExceededSec;
    report.gateEvents = run.gateEvents;
    report.gatedSec = run.gatedSec;
    report.failSafeActivations = run.failSafeActivations;
    report.failSafeSec = run.failSafeSec;
    report.invalidReadings = run.invalidReadings;
    report.meanLatencyMs = run.metrics.meanMs();
    return report;
}

fault::EmergencyReport
emergencyReport(const CoSimResult& run, const CoSimResult& baseline)
{
    fault::EmergencyReport report = emergencyReport(run);
    report.hasBaseline = true;
    report.baselineMeanLatencyMs = baseline.metrics.meanMs();
    report.baselineEnvelopeExceededSec = baseline.envelopeExceededSec;
    report.latencyPenaltyMs =
        report.meanLatencyMs - report.baselineMeanLatencyMs;
    report.throttlePenaltySec = run.gatedSec - baseline.gatedSec;
    return report;
}

CoSimulation::CoSimulation(const CoSimConfig& config) : config_(config)
{
    validateConfig(config_);
}

CoSimResult
CoSimulation::run(const std::vector<sim::IoRequest>& workload)
{
    CoSimEngine engine(config_);
    engine.start(workload);
    engine.advanceToCompletion();
    return engine.result();
}

} // namespace hddtherm::dtm
