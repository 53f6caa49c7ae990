/**
 * @file
 * The storage system: an array of simulated disks behind an (optional)
 * RAID controller, replaying block-level workloads (paper §5.1).
 *
 * Logical requests are striped into per-disk sub-requests; RAID-5 writes
 * follow the read-modify-write protocol (read old data + old parity, then
 * write new data + new parity).  A logical request completes when its last
 * sub-request finishes; response times feed the Figure 4 CDFs.
 */
#ifndef HDDTHERM_SIM_STORAGE_SYSTEM_H
#define HDDTHERM_SIM_STORAGE_SYSTEM_H

#include <functional>
#include <memory>
#include <vector>

#include "sim/disk.h"
#include "sim/metrics.h"
#include "sim/raid.h"
#include "util/flat_map.h"

namespace hddtherm::sim {

/// Storage-system configuration.
struct SystemConfig
{
    DiskConfig disk;       ///< Configuration shared by all member disks.
    int disks = 1;         ///< Member count.
    RaidLevel raid = RaidLevel::None;
    int stripeSectors = 16; ///< Stripe unit (paper: 16 x 512 B).
    /**
     * Array-controller write-back caching: logical writes are reported
     * complete after writeReportLatencyMs while the media traffic proceeds
     * in the background (NVRAM-backed controllers; standard for the
     * era's enterprise arrays).
     */
    bool immediateWriteReport = false;
    double writeReportLatencyMs = 0.1;
};

/// Disk array + controller + metrics.
class StorageSystem
{
  public:
    /// Invoked when a logical request completes.
    using CompletionCallback = std::function<void(const IoCompletion&)>;

    explicit StorageSystem(const SystemConfig& config);

    /// Shared event queue (drive it manually for co-simulation).
    engine::SimKernel& events() { return events_; }
    const engine::SimKernel& events() const { return events_; }

    /// Member disk access.
    SimDisk& disk(int i) { return *disks_.at(std::size_t(i)); }
    const SimDisk& disk(int i) const { return *disks_.at(std::size_t(i)); }

    /// Number of member disks.
    int diskCount() const { return int(disks_.size()); }

    /**
     * Logical sector capacity: per-device for RaidLevel::None (requests
     * carry a device id), whole-volume for RAID-0/5.
     */
    std::int64_t logicalSectors() const;

    /// Optional observer of logical completions.
    void setCompletionCallback(CompletionCallback cb);

    /**
     * Schedule a logical request for its arrival time (which must not be
     * in the simulated past).  The request waits in a recycled arrival
     * slot, which the arrival event's payload names.
     */
    void submit(const IoRequest& request);

    /**
     * Replay a whole workload to completion and return the metrics.
     *
     * Equivalent to submit()ting every request in order and then
     * runAll(), bit for bit, but only one arrival is pending at a time:
     * every request is validated up front (a bad one throws before any
     * event fires), the kernel reserves one sequence number per request,
     * and each arrival, when it fires, schedules the next one (in
     * (arrival, index) order) under the number eager submission would
     * have given it.  The kernel refuses to checkpoint while the feed is
     * still active.  If run() throws, the arrivals not yet fired stay
     * pending (from a copy of the trace), as submitted events would, and
     * run() refuses to start again until they have fired.
     */
    ResponseMetrics run(const std::vector<IoRequest>& workload);

    /// Drain all pending events.
    void runAll() { events_.runAll(); }

    /// Metrics accumulated so far.
    const ResponseMetrics& metrics() const { return metrics_; }

    /// Reset metrics (e.g. after warm-up).
    void resetMetrics() { metrics_ = ResponseMetrics(); }

    /// Requests accepted but not yet completed.
    std::size_t inflight() const { return inflight_.size(); }

    /// True while run() still holds arrivals it has not scheduled.
    bool feeding() const { return feed_next_ < feed_order_.size(); }

    /// Configuration in force.
    const SystemConfig& config() const { return config_; }

    /// @name Array-wide DTM hooks (applied to every member disk).
    /// @{
    void gateAll(bool gated);
    void changeRpmAll(double rpm);
    /// @}

    /**
     * RAID-1 read steering (the paper's §5.4 mirrored-disk DTM idea):
     * direct all mirror reads to member @p index, or pass -1 to restore
     * the default least-loaded selection.  Writes always go to every
     * mirror.  Only meaningful for RaidLevel::Raid1.
     */
    void setPreferredMirror(int index);

    /// Current preferred mirror (-1 = least-loaded selection).
    int preferredMirror() const { return preferred_mirror_; }

    /**
     * Failure injection: mark member @p index failed.  Subsequent RAID-1
     * traffic avoids it; RAID-5 serves its extents in degraded mode
     * (reads reconstruct from the row's surviving units, writes maintain
     * parity without the lost member).  Only redundant levels accept
     * failures, at most one member, and only while that member is idle
     * (inject before replay or between bursts).
     */
    void failDisk(int index);

    /// Index of the failed member, or -1 if the array is healthy.
    int failedDisk() const { return failed_; }

    /// @name Checkpoint/restore
    /// @{

    /// Serialize controller, metrics, pending arrivals and every member
    /// disk (the kernel is saved separately by its owner).
    void saveState(snap::StateWriter& w) const;

    /// Restore state written by saveState.
    void loadState(snap::StateReader& r);

    /// @}

  private:
    /// A logical request in flight.  Records live in a slab and are
    /// recycled, so the phase-2 list keeps its capacity across requests.
    struct Outstanding
    {
        IoRequest logical;
        int remaining = 0;
        bool reported = false;         ///< Already counted (write-back).
        std::vector<IoRequest> phase2; ///< RMW writes awaiting phase 1.
    };

    /// A logical request between submission and its arrival event.
    struct Arrival
    {
        IoRequest request;
        bool pending = false; ///< Its arrival event is in the kernel.
        bool fed = false;     ///< Scheduled by run()'s feed.
    };

    void validate(const IoRequest& request) const;
    std::uint32_t holdArrival(const IoRequest& request, bool fed);
    void arrive(std::uint32_t slot);
    void feedNext();
    void dispatch(const IoRequest& request);
    int pickMirror() const;
    std::uint32_t acquireSlot(const IoRequest& logical, bool reported);
    void issueSub(std::uint32_t slot, int disk_index, const IoRequest& sub);
    void onSubComplete(const IoRequest& sub, engine::SimTime finish);
    void completeLogical(const Outstanding& out, engine::SimTime finish);

    SystemConfig config_;
    engine::SimKernel events_;
    engine::DomainId domain_; ///< Storage clock domain of events_.
    std::vector<std::unique_ptr<SimDisk>> disks_;
    ResponseMetrics metrics_;
    CompletionCallback callback_;

    std::vector<Outstanding> slots_;
    std::vector<std::uint32_t> free_slots_;
    util::FlatU64Map<std::uint32_t> inflight_;      ///< logical id -> slot
    util::FlatU64Map<std::uint32_t> sub_to_parent_; ///< sub id -> slot
    std::uint64_t next_sub_id_ = 1;

    /// Arrival slots (kEvtArrival payloads index it) and the free ones
    /// as a min-heap: the lowest free slot is always reused first.
    std::vector<Arrival> arrivals_;
    std::vector<std::uint32_t> free_arrivals_;

    /// run()'s arrival feed: the trace (the caller's own, or feed_copy_
    /// once run() has exited by exception with arrivals still pending),
    /// its fire order, the sequence number reserved for index 0, the next
    /// position of feed_order_ to schedule, and the arrivals not yet fired.
    const std::vector<IoRequest>* feed_ = nullptr;
    std::vector<IoRequest> feed_copy_;
    std::vector<std::uint32_t> feed_order_;
    std::uint64_t feed_base_ = 0;
    std::size_t feed_next_ = 0;
    std::size_t feed_live_ = 0;

    /// dispatch() scratch, reused so striping allocates nothing.
    std::vector<StripeTarget> targets_;
    std::vector<IoRequest> phase1_;

    int preferred_mirror_ = -1;
    mutable int mirror_rr_ = 0; ///< Round-robin tiebreaker for reads.
    int failed_ = -1;           ///< Failed member (-1 = healthy).
};

} // namespace hddtherm::sim

#endif // HDDTHERM_SIM_STORAGE_SYSTEM_H
