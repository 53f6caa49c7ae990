/**
 * @file
 * The deterministic discrete-event simulation kernel.
 *
 * One SimKernel carries the shared notion of time for every layer of the
 * simulator.  It generalizes the seed's storage event queue three ways:
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
 * An event is plain data: {when, key, kind, aux, payload}.  A module
 * registers one handler per (kind, aux) at construction — aux addresses
 * the component, e.g. a disk id — and the kernel dispatches each event
 * to its handler with the payload.  The same record is the event's
 * checkpoint record (snap/snapshot.h): saveState() writes the pending
 * events as they are, and loadState() pushes them back under their
 * original keys after checking each against the handler table.
 *
 * Closures still schedule through schedule(when, domain, cb), for tests,
 * benches and the drivers that are not checkpointable: the closure waits
 * in a recycled table inside the kernel and the event's payload indexes
 * it.  saveState() refuses while any closure is pending.
 *
 * Periodic work (control ticks, epoch barriers) registers through
 * schedulePeriodic(): the callback returns true to keep ticking, false to
 * stop.  The kernel reschedules after the callback returns, which keeps
 * the sequence-number assignment — and therefore tie order — identical to
 * a callback that reschedules itself as its last statement.  A task armed
 * by kind (registerTask()) is checkpointable: its kind is its identity.
 */
#ifndef HDDTHERM_ENGINE_KERNEL_H
#define HDDTHERM_ENGINE_KERNEL_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

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
    /// Runs one event of a registered (kind, aux) with its payload.
    using Handler = std::function<void(std::uint64_t payload)>;
    /// Vets the payload of an event record read from a checkpoint.
    using PayloadCheck = std::function<bool(std::uint64_t payload)>;

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

    /**
     * Register @p fire as the handler of events of @p kind addressed to
     * component @p aux (each pair once; the kernel's built-in kinds are
     * not registrable).  @p check, if given, vets the payload of each
     * such event a checkpoint restores.
     */
    void registerHandler(std::uint32_t kind, std::uint32_t aux,
                         Handler fire, PayloadCheck check = nullptr);

    /**
     * Register @p cb as the body of periodic tasks of @p kind (once per
     * kind).  schedulePeriodic(domain, period, kind) arms one, and a
     * checkpoint restores it by its kind.
     */
    void registerTask(std::uint32_t kind, PeriodicCallback cb);

    /// Schedule @p cb at absolute time @p when (>= now()).
    void schedule(SimTime when, Callback cb)
    {
        schedule(when, kDefaultDomain, std::move(cb));
    }

    /// Schedule @p cb at @p when under clock domain @p domain.  The
    /// closure blocks saveState() until it has fired.
    void schedule(SimTime when, DomainId domain, Callback cb);

    /// Schedule an event of a registered (@p kind, @p aux) with
    /// @p payload at @p when under @p domain.
    void schedule(SimTime when, DomainId domain, std::uint32_t kind,
                  std::uint32_t aux, std::uint64_t payload);

    /**
     * Reserve @p n consecutive sequence numbers and return the first.
     * A caller that knows up front which events it will schedule — a
     * trace replay — reserves their keys at once and schedules each
     * event later with scheduleReserved().  Every event then sorts
     * exactly where it would have had it been scheduled at reservation
     * time, while only the live frontier occupies the heap.
     */
    std::uint64_t reserveSequences(std::uint64_t n);

    /// Schedule an event of a registered (@p kind, @p aux) at @p when
    /// under @p domain with the reserved sequence number @p seq (from
    /// reserveSequences(), each number used once).
    void scheduleReserved(SimTime when, DomainId domain, std::uint64_t seq,
                          std::uint32_t kind, std::uint32_t aux,
                          std::uint64_t payload);

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
     * timestamps.  A live closure task blocks saveState().
     */
    void schedulePeriodic(DomainId domain, SimTime period,
                          PeriodicCallback cb);

    /// Arm a periodic task of the registered task @p kind (see
    /// registerTask()); an unregistered kind is rejected here.
    void schedulePeriodic(DomainId domain, SimTime period,
                          std::uint32_t kind);

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

    /**
     * Serialize clocks, the periodic-task table, and every pending
     * event record in canonical (when, key) order.  Requires no pending
     * closure, no live closure task, and no reserved sequence number
     * still unscheduled (the events it stands for exist only in their
     * owner's feed) — violations throw util::ModelError rather than
     * silently dropping state.
     */
    void saveState(snap::StateWriter& w) const;

    /**
     * Restore a kernel saved by saveState().  Must be called on an idle
     * kernel (no events, no periodic tasks) whose registered domains
     * exactly match the saved run and whose handlers and task kinds
     * cover every saved record — modules register both during
     * construction, so rebuilding the object graph from the same config
     * satisfies this.  Pending events are re-enqueued with their
     * *original* heap keys and the sequence counter resumes where it
     * left off, so tie-breaking — and therefore the simulation — is
     * bit-identical to the uninterrupted run.  A record that no handler
     * accepts throws util::ModelError.
     */
    void loadState(snap::StateReader& r);

    /// @}

  private:
    /**
     * key = biased priority(16) | sequence(32) | domain(16): one integer
     * compare resolves both tie-break levels (the domain sits below the
     * unique sequence, so it never influences order).  The event is
     * plain data, so heap sifts move 32 trivially copyable bytes
     * (bench_kernel_overhead gates dispatch cost).
     */
    struct Event
    {
        SimTime when;
        std::uint64_t key;
        std::uint32_t kind;
        std::uint32_t aux;
        std::uint64_t payload;
    };
    static_assert(sizeof(Event) <= 32, "an event is one 32-byte record");

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
        /// the domain id in its low 16, so an event key is built from the
        /// sequence number with a single OR.
        std::uint64_t key_base;
    };
    struct Unit
    {
        Handler fire;
        PayloadCheck check;
    };
    struct PeriodicTask
    {
        DomainId domain;
        SimTime period;
        std::uint32_t kind; ///< Checkpoint identity (kTaskClosure: none).
        PeriodicCallback cb; ///< Empty once the task has stopped.
    };

    void checkSchedule(SimTime when, DomainId domain) const;
    bool hasHandler(std::uint32_t kind, std::uint32_t aux) const;
    void push(SimTime when, DomainId domain, std::uint64_t seq,
              std::uint32_t kind, std::uint32_t aux, std::uint64_t payload);
    void armTask(DomainId domain, SimTime period, std::uint32_t kind,
                 PeriodicCallback cb);
    void firePeriodic(std::uint32_t index);
    void emit(TraceKind kind, const Event& ev);

    /// Sentinel for firing_periodic_: no periodic callback in flight.
    static constexpr std::size_t kNoTask = std::size_t(-1);

    /// Binary min-heap on (when, key) under Later.
    std::vector<Event> heap_;
    std::vector<Domain> domains_;
    /// handlers_[kind][aux]; the built-in kinds stay empty.
    std::vector<std::vector<Unit>> handlers_;
    /// task_kinds_[kind]: body of the periodic tasks of that kind.
    std::vector<PeriodicCallback> task_kinds_;
    /// Pending closures (kEvtClosure payloads index it) and free slots.
    std::vector<Callback> closures_;
    std::vector<std::uint32_t> free_closures_;
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
};

} // namespace hddtherm::engine

#endif // HDDTHERM_ENGINE_KERNEL_H
