/**
 * @file
 * The deterministic discrete-event simulation kernel.
 *
 * One SimKernel carries the shared notion of time for every layer of the
 * simulator.  It generalizes the original sim::EventQueue three ways:
 *
 *   1. Deterministic tie-breaking.  Events fire in (time, priority,
 *      sequence) order: simultaneous events run lowest-priority-value
 *      first, and events of equal time and priority run in the order they
 *      were scheduled.  Replays are bit-identical by construction.
 *
 *   2. Named clock domains.  A domain is a label (plus a default
 *      priority) under which events are scheduled: the event-driven
 *      storage domain, the fixed-step thermal/DTM control domain, the
 *      epoch-step fleet ambient domain.  Domains cost one int per event
 *      and make every event attributable in traces.  registerDomain() is
 *      idempotent by name, so components sharing a kernel can each claim
 *      their domain without coordination.
 *
 *   3. Event tracing.  An optional TraceSink observes every schedule and
 *      fire as {time, when, domain, kind, id}.  With no sink attached the
 *      hook is a single branch on the hot path (see
 *      bench_kernel_overhead).
 *
 * Periodic work (control ticks, epoch barriers) registers through
 * schedulePeriodic(): the callback returns true to keep ticking, false to
 * stop.  The kernel reschedules after the callback returns, which keeps
 * the sequence-number assignment — and therefore tie order — identical to
 * a callback that reschedules itself as its last statement.
 */
#ifndef HDDTHERM_ENGINE_KERNEL_H
#define HDDTHERM_ENGINE_KERNEL_H

#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <vector>

#include "engine/tag_map.h"
#include "engine/trace.h"
#include "snap/snapshot.h"

namespace hddtherm::engine {

/// Time-ordered event kernel driving the simulation.
class SimKernel
{
  public:
    using Callback = std::function<void()>;
    /// Periodic callback: return true to keep the task ticking.
    using PeriodicCallback = std::function<bool()>;

    /// Domain 0 always exists and is named "default".
    static constexpr DomainId kDefaultDomain = 0;

    /**
     * Domain priorities must fit 16 bits: (priority, sequence) are packed
     * into one 64-bit heap key, so tie-breaking costs the comparator
     * exactly what the pre-refactor (time, sequence) queue paid.  The
     * bound is enforced loudly by registerDomain().
     */
    static constexpr int kMinPriority = -32768;
    static constexpr int kMaxPriority = 32767;

    /// Packed heap-key layout: priority(16) | sequence(32) | domain(16).
    static constexpr int kSeqBits = 32;
    static constexpr int kDomainBits = 16;

    SimKernel();

    /**
     * Register (or look up) the clock domain called @p name.  Events
     * scheduled under the domain inherit @p priority for tie-breaking
     * (lower fires first among simultaneous events).  Registering an
     * existing name returns its id; the priorities must then agree.
     */
    DomainId registerDomain(const std::string& name, int priority = 0);

    /// Registered domain count (>= 1: the default domain).
    int domainCount() const { return int(domains_.size()); }

    /// Name of a registered domain.
    const std::string& domainName(DomainId id) const;

    /// Tie-break priority of a registered domain.
    int domainPriority(DomainId id) const;

    /// Schedule @p cb at absolute time @p when (>= now()).
    void schedule(SimTime when, Callback cb)
    {
        schedule(when, kDefaultDomain, std::move(cb));
    }

    /// Schedule @p cb at @p when under clock domain @p domain.
    void schedule(SimTime when, DomainId domain, Callback cb);

    /**
     * Schedule @p cb at @p when under @p domain with a snapshot tag: a
     * typed description from which the owning module rebuilds the exact
     * callback on restore (see snap/snapshot.h).  While snapshots are
     * disabled the tag is ignored and this is plain schedule().
     */
    void schedule(SimTime when, DomainId domain,
                  const snap::EventTag& tag, Callback cb);

    /**
     * Reserve @p n consecutive sequence numbers and return the first.
     * A caller that knows up front which events it will schedule — a
     * trace replay — reserves their keys at once and schedules each
     * event later with scheduleReserved().  Every event then sorts
     * exactly where it would have had it been scheduled at reservation
     * time, while only the live frontier occupies the heap.
     */
    std::uint64_t reserveSequences(std::uint64_t n);

    /**
     * Schedule @p cb at @p when under @p domain with the reserved
     * sequence number @p seq (from reserveSequences(), each number used
     * once).  The tag is recorded as for the tagged schedule().
     */
    void scheduleReserved(SimTime when, DomainId domain, std::uint64_t seq,
                          const snap::EventTag& tag, Callback cb);

    /// Reserved sequence numbers not yet scheduled (0 is required to save).
    std::uint64_t reservedPending() const { return reserved_pending_; }

    /// Schedule @p cb at now() + @p delay.
    void scheduleAfter(SimTime delay, Callback cb)
    {
        scheduleAfter(delay, kDefaultDomain, std::move(cb));
    }

    /// Schedule @p cb at now() + @p delay under domain @p domain.
    void scheduleAfter(SimTime delay, DomainId domain, Callback cb);

    /**
     * Arm a periodic task on @p domain: @p cb first fires at
     * now() + @p period and re-fires every @p period while it returns
     * true.  The reschedule happens after the callback returns, so events
     * the callback schedules sort ahead of the next tick at equal
     * timestamps.
     */
    void schedulePeriodic(DomainId domain, SimTime period,
                          PeriodicCallback cb);

    /**
     * Arm a *named* periodic task.  The name is the task's identity in a
     * checkpoint: on restore, loadState() asks its TaskResolver to
     * rebuild the callback for each saved name.  Snapshot-enabled
     * kernels require every periodic task to be named.
     */
    void schedulePeriodic(DomainId domain, SimTime period,
                          std::string name, PeriodicCallback cb);

    /// Pop and run the earliest event; returns false if the queue is empty.
    bool runNext();

    /// Run events with when <= @p limit; time advances to @p limit.
    void runUntil(SimTime limit);

    /// Run until the queue drains.
    void runAll();

    /// Current simulated time.
    SimTime now() const { return now_; }

    /// True if no events are pending.
    bool empty() const { return heap_.empty(); }

    /// Number of pending events.
    std::size_t pending() const { return heap_.size(); }

    /// Events executed so far (diagnostics / benchmarks).
    std::uint64_t fired() const { return fired_; }

    /**
     * Attach @p sink to observe every schedule and fire (nullptr
     * detaches).  The sink must outlive the kernel or be detached first.
     * Attaching a sink never perturbs event order or simulation results
     * (pinned by the kernel-equivalence property test).
     */
    void setTraceSink(TraceSink* sink) { sink_ = sink; }

    /// Currently attached sink, or nullptr.
    TraceSink* traceSink() const { return sink_; }

    /// @name Checkpoint/restore
    /// @{

    /// Rebuilds the callback of one tagged event on restore.
    using EventResolver = std::function<Callback(const snap::EventTag&)>;

    /// Rebuilds the callback of one named periodic task on restore.
    using TaskResolver =
        std::function<PeriodicCallback(const std::string&)>;

    /**
     * Turn snapshot bookkeeping on or off.  Must be called before any
     * event or periodic task exists — tags are recorded at schedule
     * time, so a late enable would leave untrackable events behind.
     * While enabled, every pending event carries its tag in a side
     * table and untagged events are merely *counted*: they are legal,
     * but saveState() refuses to run until they have fired.
     */
    void enableSnapshots(bool on);

    /// True if snapshot bookkeeping is active.
    bool snapshotsEnabled() const { return snapshots_; }

    /// Pending events scheduled without a tag (0 is required to save).
    std::size_t untaggedPending() const { return untagged_pending_; }

    /**
     * Serialize clocks, the periodic-task table, and every pending
     * event (as its tag, in canonical (when, key) order).  Requires
     * snapshots enabled, zero untagged pending events, no reserved
     * sequence number still unscheduled (the events it stands for exist
     * only in their owner's feed), and a name on every live periodic
     * task — violations throw util::ModelError rather than silently
     * dropping state.
     */
    void saveState(snap::StateWriter& w) const;

    /**
     * Restore a kernel saved by saveState().  Must be called on an idle
     * kernel (no events, no periodic tasks) whose registered domains
     * exactly match the saved run — modules register domains during
     * construction, so rebuilding the object graph from the same config
     * satisfies this.  Pending events are re-enqueued with their
     * *original* heap keys and the sequence counter resumes where it
     * left off, so tie-breaking — and therefore the simulation — is
     * bit-identical to the uninterrupted run.  @p events rebuilds
     * module-owned callbacks from their tags; @p tasks rebuilds named
     * periodic callbacks (periodic re-fire events are handled
     * internally).
     */
    void loadState(snap::StateReader& r, const EventResolver& events,
                   const TaskResolver& tasks);

    /// @}

  private:
    /**
     * key = biased priority(16) | sequence(32) | domain(16): one integer
     * compare resolves both tie-break levels (the domain sits below the
     * unique sequence, so it never influences order), and the event
     * matches the pre-refactor queue's 48 bytes exactly — heap sifts
     * move whole events, so size is dispatch cost (bench_kernel_overhead
     * gates this).
     */
    struct Event
    {
        SimTime when;
        std::uint64_t key;
        Callback cb;
    };
    struct Later
    {
        bool operator()(const Event& a, const Event& b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.key > b.key;
        }
    };
    struct Domain
    {
        std::string name;
        int priority;
        /// Biased priority pre-shifted into the key's top 16 bits plus
        /// the domain id in its low 16, so schedule() builds an event
        /// key from the sequence number with a single OR.
        std::uint64_t key_base;
    };
    struct PeriodicTask
    {
        DomainId domain;
        SimTime period;
        PeriodicCallback cb;
        std::string name; ///< Checkpoint identity ("" = unnamed).
    };

    void firePeriodic(std::size_t index);
    void emit(TraceKind kind, const Event& ev);
    void scheduleImpl(SimTime when, DomainId domain, std::uint64_t seq,
                      const snap::EventTag* tag, Callback cb);

    /// Sequence number packed inside an event key (unique per event).
    static std::uint64_t seqOf(std::uint64_t key)
    {
        return (key >> kDomainBits) &
               ((std::uint64_t(1) << kSeqBits) - 1);
    }

    /// Sentinel for firing_periodic_: no periodic callback in flight.
    static constexpr std::size_t kNoTask = std::size_t(-1);

    std::priority_queue<Event, std::vector<Event>, Later> heap_;
    std::vector<Domain> domains_;
    std::vector<PeriodicTask> periodic_;
    /// Index of the periodic task currently executing (kNoTask outside a
    /// firing).  saveState() needs it: a checkpoint written from inside a
    /// periodic callback — the normal case, the checkpoint writer IS a
    /// periodic task — must count that task as alive and note that its
    /// re-fire event does not exist yet (it is scheduled only after the
    /// callback returns), so loadState() can reconstruct it.
    std::size_t firing_periodic_ = kNoTask;
    TraceSink* sink_ = nullptr;
    SimTime now_ = 0.0;
    std::uint64_t next_seq_ = 0;
    std::uint64_t reserved_pending_ = 0;
    std::uint64_t fired_ = 0;

    /// Snapshot side table: sequence number -> tag of the pending event.
    EventTagMap tags_;
    std::size_t untagged_pending_ = 0;
    bool snapshots_ = false;
};

} // namespace hddtherm::engine

#endif // HDDTHERM_ENGINE_KERNEL_H
