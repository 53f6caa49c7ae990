/**
 * @file
 * Thermal/performance co-simulation with closed-loop DTM control.
 *
 * The paper's §5.3 proposes, as future work, driving throttling decisions
 * from the observed temperature while requests flow; this module makes
 * that concrete.  The storage simulator and the drive thermal model step
 * together: every control interval the measured VCM duty (seek time per
 * wall-clock time) feeds the thermal model, and the DTM policy gates
 * request dispatch (and optionally drops the spindle speed) when the
 * temperature nears the envelope, resuming below a hysteresis threshold.
 */
#ifndef HDDTHERM_DTM_COSIM_H
#define HDDTHERM_DTM_COSIM_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dtm/governor.h"
#include "fault/emergency.h"
#include "fault/fault_player.h"
#include "fault/fault_schedule.h"
#include "sim/storage_system.h"
#include "snap/checkpoint.h"
#include "thermal/drive_thermal.h"
#include "util/interp.h"

namespace hddtherm::dtm {

/// DTM control policies for the co-simulation.
enum class DtmPolicy
{
    None,          ///< No control: temperature is observed only.
    GateRequests,  ///< Stop dispatching near the envelope (Fig. 6(a)).
    GateAndLowRpm, ///< Also drop to a second spindle speed (Fig. 6(b)).
    GovernSpeed,   ///< DRPM-style multi-speed governor (dynamic §5.2).
};

/// Human-readable policy name.
const char* dtmPolicyName(DtmPolicy policy);

/// Co-simulation configuration.
struct CoSimConfig
{
    sim::SystemConfig system;     ///< Storage array under test.
    DtmPolicy policy = DtmPolicy::None;
    double envelopeC = thermal::kThermalEnvelopeC;
    /// Gate when the air temperature reaches this.
    double gateThresholdC = thermal::kThermalEnvelopeC;
    /// Resume once the temperature falls below this.  The throttling
    /// dynamics are sub-second (Figure 7), so the hysteresis band is thin.
    double resumeThresholdC = thermal::kThermalEnvelopeC - 0.05;
    double lowRpm = 0.0;          ///< Second speed for GateAndLowRpm.
    /// Speed ladder for GovernSpeed (must include a full-duty-safe rung).
    std::vector<double> rpmLadder;
    double ambientC = thermal::kBaselineAmbientC;
    /**
     * Optional ambient-temperature schedule as (time s, ambient C)
     * breakpoints, linearly interpolated and clamped at the ends; empty
     * means the constant ambientC.  Models diurnal machine-room swings or
     * cooling degradation during a run.
     */
    std::vector<std::pair<double, double>> ambientProfile;
    double controlIntervalSec = 0.1; ///< DTM control period.
    double thermalDtSec = thermal::kPaperTimestepSec;
    /// Start the drive hot (at its steady operating temperature) instead
    /// of at ambient; default true, matching the throttling experiments.
    bool startAtSteadyState = true;
    /// Safety cap on simulated time; past it the controller stops and any
    /// still-gated requests are abandoned (a warning is logged).
    double maxSimulatedSec = 86400.0;
    /**
     * Fraction of the workload treated as warm-up: response metrics reset
     * once this fraction of requests has completed, so slow thermal
     * transients (the drive cooling into its governed operating point)
     * don't dominate the reported means.  Temperature statistics still
     * cover the whole run.
     */
    double warmupFraction = 0.0;
    /**
     * Deterministic fault-injection schedule (empty = fault-free; an
     * empty schedule is bit-identical to pre-fault-support behavior).
     * Only events with target < 0 apply to a standalone engine; the fleet
     * routes targeted events per bay.  See docs/faults.md.
     */
    fault::FaultSchedule faults;
    /**
     * Fail-safe policy: after this many *consecutive* invalid sensor
     * readings (dropout faults) the controller throttles to its safe
     * floor — gate policies force the gate closed (GateAndLowRpm also
     * drops the spindle), GovernSpeed drops to the lowest rung — until a
     * valid reading returns control to the normal policy.  DtmPolicy::None
     * has no actuator and therefore no fail-safe.
     */
    int failSafeInvalidTicks = 5;
};

/// Co-simulation outcome.
struct CoSimResult
{
    sim::ResponseMetrics metrics;   ///< Logical response times.
    std::uint64_t speedChanges = 0; ///< Governor spindle-speed changes.
    double maxTempC = 0.0;          ///< Peak internal air temperature.
    double meanTempC = 0.0;         ///< Time-averaged air temperature.
    double envelopeExceededSec = 0.0; ///< Time spent above the envelope.
    double gatedSec = 0.0;          ///< Time spent throttled.
    std::uint64_t gateEvents = 0;   ///< Gate activations.
    double simulatedSec = 0.0;      ///< Total simulated time.
    double meanVcmDuty = 0.0;       ///< Average measured VCM duty.
    std::uint64_t invalidReadings = 0;     ///< Dropped sensor samples.
    std::uint64_t failSafeActivations = 0; ///< Fail-safe floor entries.
    double failSafeSec = 0.0;              ///< Time at the fail-safe floor.
};

/// Summarize a (faulted) run as an EmergencyReport.
fault::EmergencyReport emergencyReport(const CoSimResult& run);

/// As above, with fault-induced penalties versus a fault-free baseline of
/// the same workload.
fault::EmergencyReport emergencyReport(const CoSimResult& run,
                                       const CoSimResult& baseline);

/**
 * Steppable thermal/performance co-simulation engine.
 *
 * Owns one StorageSystem plus the drive thermal model and DTM controller,
 * exposed as an explicit time-stepping API so an external coordinator (the
 * fleet simulator) can interleave many engines: start() loads the workload
 * and arms the control loop, advanceTo() runs simulated time forward to a
 * barrier, and setAmbient() re-points the external cooling boundary between
 * barriers (inter-drive coupling through shared chassis air).
 *
 * CoSimulation::run() is a thin wrapper — start + advanceToCompletion —
 * and the engine produces bit-identical results to it for any advanceTo()
 * schedule: stepping changes when host code observes the simulation, never
 * the event order inside it.
 */
class CoSimEngine
{
  public:
    explicit CoSimEngine(const CoSimConfig& config);

    /**
     * Take ownership of the workload and arm the DTM control loop.  Call
     * once.  Arrivals are fed to the storage system lazily, a control
     * interval ahead of the clock, so the kernel's pending-event set — and
     * therefore a checkpoint — stays O(live traffic) instead of O(whole
     * remaining trace).  Feeding order is the arrival order (ties keep
     * the caller's order), which is also the submission order an eager
     * submit of a time-sorted trace would use.
     */
    void start(const std::vector<sim::IoRequest>& workload);

    /// Run events up to simulated time @p t (the clock advances to @p t
    /// even if the queue drains early).
    void advanceTo(engine::SimTime t);

    /// Drain every pending event (classic run-to-completion).
    void advanceToCompletion();

    /// True once every submitted request has completed.
    bool finished() const;

    /// Current simulated time, seconds.
    engine::SimTime now() const { return system_.events().now(); }

    /// Current internal drive air temperature, °C.
    double airTempC() const { return model_.airTempC(); }

    /**
     * Heat the bay currently rejects into the chassis air stream, watts:
     * the thermal model's operating-point dissipation times the member-disk
     * count (one calibrated model stands for every symmetric member).
     */
    double heatOutputW() const;

    /**
     * Re-point the external ambient (chassis inlet) temperature.
     *
     * Precedence: a non-empty CoSimConfig::ambientProfile owns the
     * ambient for the whole run; while one is active this call is a no-op
     * and returns false.  Returns true when the ambient was re-pointed.
     * (The fleet layer requires the profile to be empty, so its barrier
     * updates always apply.)  Fault-schedule ambient offsets compose on
     * top of whichever source wins.
     */
    bool setAmbient(double ambient_c);

    /**
     * Power the bay on/off (fleet BayKill/BayRestore faults).  Off, the
     * thermal model stops dissipating, heatOutputW() reads zero, request
     * dispatch gates closed, and DTM policy decisions freeze; restore
     * re-opens the gate (unless the policy holds it) and resumes control.
     */
    void setBayPower(bool on);

    /// True while the bay has power (the default).
    bool bayPowered() const { return powered_; }

    /// Storage system under control (metrics, DTM hooks, event clock).
    sim::StorageSystem& system() { return system_; }
    const sim::StorageSystem& system() const { return system_; }

    /// Result snapshot (means finalized over the time simulated so far).
    CoSimResult result() const;

    /// Configuration in force.
    const CoSimConfig& config() const { return config_; }

    /// @name Checkpoint/restore (docs/checkpoint.md)
    /// @{

    /**
     * Standalone checkpointing: every policy.everySec simulated seconds
     * a crash-consistent checkpoint of the whole engine is written to
     * policy.directory (policy.everyEpochs is a fleet cadence and must
     * be zero here).  Must be called before start().
     */
    void enableCheckpoints(const snap::CheckpointPolicy& policy);

    /**
     * Append every stateful module to @p out as sections named
     * "<prefix>dtm.cosim", "<prefix>sim.system", "<prefix>thermal.model",
     * "<prefix>fault.player" (faulted runs only) and — last —
     * "<prefix>engine.kernel".  The fleet passes "bay.<i>/" prefixes;
     * standalone checkpoints use the empty prefix.  Requires start();
     * throws util::ModelError before it.
     */
    void saveSections(snap::CheckpointWriter& out,
                      const std::string& prefix = {}) const;

    /**
     * Restore sections written by saveSections() into this engine, which
     * must be freshly constructed from the identical configuration and
     * not yet started.  @p workload re-supplies the run's workload —
     * checkpoints deliberately do not embed the trace (it is a pure
     * function of the configuration seed and can be arbitrarily long);
     * instead they record its fingerprint, and restore validates the
     * re-supplied trace against it.  Afterwards the engine behaves as
     * started: the workload is in flight and
     * advanceTo()/advanceToCompletion() produce bit-identical results to
     * the uninterrupted run.
     */
    void loadSections(const snap::CheckpointReader& in,
                      const std::vector<sim::IoRequest>& workload,
                      const std::string& prefix = {});

    /// Restore from a checkpoint file after validating its config hash
    /// against this engine's configuration.  @p workload re-supplies the
    /// run's workload (see loadSections).
    void restoreFromCheckpoint(const std::string& path,
                               const std::vector<sim::IoRequest>& workload);

    /// Write one checkpoint now (needs enableCheckpoints); synchronous —
    /// the returned file path exists when the call returns.
    std::string writeCheckpoint();

    /// Index the next checkpoint will be written under (survives
    /// resume, so a continued run numbers checkpoints like the
    /// uninterrupted one).
    std::uint64_t checkpointIndex() const { return ckpt_index_; }

    /// @}

  private:
    /// One control tick; returns true while the periodic task should
    /// keep firing (workload unfinished and safety cap not reached).
    bool tick();
    /// Body of the kTaskDtmCheckpoint periodic task.  Fires at every control
    /// interval in lockstep with tick() (writing only every
    /// ckpt_every_ticks_ firings) and mirrors tick()'s stop condition,
    /// so it dies at the same timestamp as the control loop and a
    /// checkpointed run's event horizon — and therefore its result — is
    /// identical to a bare run's.
    bool checkpointTick();
    /// Serialize and queue one checkpoint without waiting for the file
    /// to land (the periodic path; see snap::CheckpointManager).
    std::string queueCheckpoint();
    /// Submit every not-yet-fed request with arrival <= @p until.
    void feedArrivals(double until);
    /// Feed horizon for the current clock: two control intervals ahead,
    /// so no tick can reach an arrival before the previous tick fed it.
    double feedHorizon() const;
    void decidePolicy(const fault::SensorReading& reading);
    void enterFailSafeFloor();
    /// One gate authority: the disks are gated while the policy says so
    /// OR the bay is powered off (kill must not be undone by a resume).
    void applyGates() { system_.gateAll(gated_ || !powered_); }

    CoSimConfig config_;
    sim::StorageSystem system_;
    /// Fixed-step thermal/control clock domain in the shared kernel.
    engine::DomainId thermal_domain_;
    thermal::DriveThermalModel model_;
    std::optional<SpeedGovernor> governor_;
    std::optional<util::PiecewiseLinear> ambient_schedule_;
    std::optional<fault::FaultPlayer> fault_player_;

    CoSimResult partial_;
    /// The run's workload, arrival-sorted (stable), fed lazily.
    std::vector<sim::IoRequest> workload_;
    /// Next workload_ index to submit.
    std::size_t feed_next_ = 0;
    /// Fingerprint of the caller-order workload; checkpoints carry it so
    /// restore can validate the re-supplied trace.
    std::uint64_t workload_hash_ = 0;
    std::size_t workload_size_ = 0;
    std::size_t completed_ = 0;
    std::size_t warmup_count_ = 0;
    bool started_ = false;
    bool gated_ = false;
    bool powered_ = true;
    bool fail_safe_ = false;
    int invalid_run_ = 0;
    double last_seek_total_ = 0.0;
    double duty_weighted_ = 0.0;
    double duty_ewma_ = 0.0;
    double temp_integral_ = 0.0;
    engine::SimTime last_tick_ = 0.0;
    std::optional<snap::CheckpointManager> ckpt_mgr_;
    std::uint64_t ckpt_index_ = 0;
    /// Checkpoint cadence in control ticks (everySec quantized).
    std::uint64_t ckpt_every_ticks_ = 0;
    /// Control ticks left until the next checkpoint write.
    std::uint64_t ckpt_ticks_left_ = 0;
};

/**
 * Canonical textual description of a configuration; its FNV-1a hash is
 * the checkpoint header's config hash.  Two configurations with equal
 * descriptions restore each other's checkpoints.
 */
std::string checkpointDescription(const CoSimConfig& config);

/// FNV-1a hash of checkpointDescription().
std::uint64_t checkpointConfigHash(const CoSimConfig& config);

/// Joins a StorageSystem with the calibrated drive thermal model.
class CoSimulation
{
  public:
    explicit CoSimulation(const CoSimConfig& config);

    /// Run a workload to completion under the configured policy.
    CoSimResult run(const std::vector<sim::IoRequest>& workload);

    /// Configuration in force.
    const CoSimConfig& config() const { return config_; }

  private:
    CoSimConfig config_;
};

} // namespace hddtherm::dtm

#endif // HDDTHERM_DTM_COSIM_H
