/**
 * @file
 * Event-driven model of one disk drive (the DiskSim-like substrate of
 * paper §5.1).
 *
 * A SimDisk owns the ZBR layout/address map, the mechanical model, the
 * on-board cache and a request scheduler.  Requests are serviced one at a
 * time: controller overhead, then either a cache hit (bus transfer only)
 * or seek + rotational latency + zone-dependent media transfer.  Two DTM
 * hooks drive the §5.2/§5.3 studies: dispatch gating (request throttling)
 * and multi-speed RPM changes with a transition penalty.
 */
#ifndef HDDTHERM_SIM_DISK_H
#define HDDTHERM_SIM_DISK_H

#include <functional>
#include <optional>
#include <vector>

#include "engine/kernel.h"
#include "hdd/geometry.h"
#include "hdd/recording.h"
#include "hdd/seek.h"
#include "sim/address_map.h"
#include "sim/cache.h"
#include "sim/mechanics.h"
#include "sim/request.h"
#include "sim/scheduler.h"

namespace hddtherm::sim {

/// Static configuration of one simulated drive.
struct DiskConfig
{
    hdd::PlatterGeometry geometry;      ///< Platter stack.
    hdd::RecordingTech tech{400e3, 40e3}; ///< Recording point.
    int zones = hdd::kDefaultZones;     ///< ZBR zones (paper uses 30).
    double rpm = 10000.0;               ///< Initial spindle speed.

    /// Seek curve; defaults to the diameter-derived profile.
    std::optional<hdd::SeekProfile> seekProfile;

    double headSwitchMs = 0.3;          ///< Head-switch time.
    double controllerOverheadMs = 0.2;  ///< Per-request firmware overhead.
    double busMBps = 160.0;             ///< Interface rate for cache hits.
    std::size_t cacheBytes = 4u << 20;  ///< On-board buffer (paper: 4 MB).
    int cacheSegments = 16;             ///< Buffer segments.
    bool readAheadToTrackEnd = true;    ///< Fill segment to end of track.
    SchedulerPolicy scheduler = SchedulerPolicy::Fcfs;

    /// RPM-transition penalty in seconds per 1000 RPM of change (the drive
    /// cannot service requests while the spindle re-locks).
    double rpmChangeSecPerKrpm = 0.1;

    /// Record the disk's idle-gap lengths (time between going idle and
    /// the next dispatch) for power-management studies.
    bool recordIdleGaps = false;
};

/// Cumulative activity counters (inputs to the thermal co-simulation).
struct DiskActivity
{
    double busySec = 0.0;        ///< Time spent servicing requests.
    double seekSec = 0.0;        ///< Time the VCM was actively seeking.
    double rotationSec = 0.0;    ///< Rotational-latency time.
    double transferSec = 0.0;    ///< Media-transfer time.
    std::uint64_t completions = 0;   ///< Requests finished.
    std::uint64_t mediaAccesses = 0; ///< Requests that touched the media.
    std::uint64_t seeks = 0;         ///< Arm movements (distance > 0).
};

/// One simulated disk drive attached to an event queue.
class SimDisk
{
  public:
    /// Invoked when a request completes, with the finish time.
    using CompletionHandler =
        std::function<void(const IoRequest&, engine::SimTime)>;

    /**
     * @param events shared kernel (must outlive the disk).
     * @param config drive configuration.
     * @param id disk id, unique per kernel: it addresses this disk's
     *        finish and retry events (their aux field).
     */
    SimDisk(engine::SimKernel& events, const DiskConfig& config, int id = 0);

    SimDisk(const SimDisk&) = delete;
    SimDisk& operator=(const SimDisk&) = delete;

    /// Set the completion callback (e.g. the RAID controller's).
    void setCompletionHandler(CompletionHandler handler);

    /// Submit a request; it is queued and serviced in policy order.
    void submit(const IoRequest& request);

    /// @name DTM hooks.
    /// @{
    /// Pause (true) or resume (false) dispatching queued requests.
    void gate(bool gated);

    /// True while dispatch is gated.
    bool gated() const { return gated_; }

    /**
     * Begin a spindle-speed transition; the drive is unavailable for
     * |new - old| * rpmChangeSecPerKrpm / 1000 seconds.
     */
    void changeRpm(double new_rpm);

    /// Current (target) spindle speed.
    double rpm() const { return mechanics_.rpm(); }
    /// @}

    /// Diagnostic id.
    int id() const { return id_; }

    /// User-addressable sectors.
    std::int64_t totalSectors() const { return map_.totalSectors(); }

    /// Address map (shared with workload generators).
    const DiskAddressMap& addressMap() const { return map_; }

    /// Cache statistics.
    const CacheStats& cacheStats() const { return cache_.stats(); }

    /// Activity counters.
    const DiskActivity& activity() const { return activity_; }

    /// Idle-gap lengths in seconds (empty unless config.recordIdleGaps).
    const std::vector<double>& idleGaps() const { return idle_gaps_; }

    /**
     * Time-averaged number of requests in the system (queued plus in
     * service) from t=0 to @p now — Little's-law "L" for this disk.
     */
    double avgQueueDepth(engine::SimTime now) const;

    /// Fraction of [0, now] the disk spent servicing requests.
    double utilization(engine::SimTime now) const
    {
        return now > 0.0 ? activity_.busySec / now : 0.0;
    }

    /// Pending queue depth (excluding the in-flight request).
    std::size_t queueDepth() const { return sched_.size(); }

    /// True when no request is in flight and the queue is empty.
    bool idle() const { return !busy_ && sched_.empty(); }

    /// Configuration in force.
    const DiskConfig& config() const { return config_; }

    /// @name Checkpoint/restore (driven by StorageSystem).
    /// @{

    /// Serialize dispatch state (the request in service included),
    /// mechanics, cache, queue, and counters.
    void saveState(snap::StateWriter& w) const;

    /// Restore state written by saveState.
    void loadState(snap::StateReader& r);

    /// @}

  private:
    void tryDispatch();
    void finish();
    void noteDepthChange(engine::SimTime now, int delta);

    engine::SimKernel& events_;
    engine::DomainId domain_; ///< The kernel's storage clock domain.
    DiskConfig config_;
    int id_;
    DiskAddressMap map_;
    hdd::SeekModel seek_model_;
    DiskMechanics mechanics_;
    DiskCache cache_;
    Scheduler sched_;
    CompletionHandler handler_;
    DiskActivity activity_;
    bool busy_ = false;
    /// The request in service while busy_, and when its service ends.
    /// One request is served at a time, so the finish event carries
    /// neither; saveState() writes both while busy_.
    IoRequest in_service_;
    engine::SimTime finish_time_ = 0.0;
    bool gated_ = false;
    engine::SimTime idle_since_ = 0.0;   ///< When the disk last went idle.
    std::vector<double> idle_gaps_;
    int depth_ = 0;              ///< Requests in the system right now.
    double depth_integral_ = 0.0;
    engine::SimTime depth_changed_at_ = 0.0;
    engine::SimTime available_at_ = 0.0; ///< End of any RPM transition.
    double pending_rpm_ = 0.0;   ///< Nonzero while a transition waits.
    bool retry_scheduled_ = false;
};

/// Build the address-map layout implied by a DiskConfig.
hdd::ZoneModel makeLayout(const DiskConfig& config);

} // namespace hddtherm::sim

#endif // HDDTHERM_SIM_DISK_H
