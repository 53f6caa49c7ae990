#include "engine/kernel.h"

#include <algorithm>
#include <utility>

#include "snap/state.h"
#include "util/error.h"

namespace hddtherm::engine {

namespace {

/// Biased priority in the top 16 bits (monotonic: a lower priority
/// yields a smaller key, so it fires first at equal times) plus the
/// domain id in the low 16 — everything of an event key except its
/// sequence number.
std::uint64_t
keyBase(int priority, DomainId domain)
{
    const auto biased =
        std::uint64_t(std::uint16_t(priority)) ^ 0x8000ull;
    return biased << (SimKernel::kSeqBits + SimKernel::kDomainBits) |
           std::uint64_t(domain);
}

} // namespace

SimKernel::SimKernel()
{
    domains_.push_back({"default", 0, keyBase(0, 0)});
}

DomainId
SimKernel::registerDomain(const std::string& name, int priority)
{
    HDDTHERM_REQUIRE(!name.empty(), "domain name must not be empty");
    HDDTHERM_REQUIRE(priority >= kMinPriority && priority <= kMaxPriority,
                     "domain priority out of the 16-bit key range");
    for (std::size_t i = 0; i < domains_.size(); ++i) {
        if (domains_[i].name == name) {
            HDDTHERM_REQUIRE(domains_[i].priority == priority,
                             "domain re-registered with a different "
                             "priority");
            return DomainId(i);
        }
    }
    const auto id = DomainId(domains_.size());
    HDDTHERM_REQUIRE(id < (1 << kDomainBits),
                     "too many clock domains for the 16-bit key field");
    domains_.push_back({name, priority, keyBase(priority, id)});
    return id;
}

const std::string&
SimKernel::domainName(DomainId id) const
{
    HDDTHERM_REQUIRE(id >= 0 && id < domainCount(), "unknown domain id");
    return domains_[std::size_t(id)].name;
}

int
SimKernel::domainPriority(DomainId id) const
{
    HDDTHERM_REQUIRE(id >= 0 && id < domainCount(), "unknown domain id");
    return domains_[std::size_t(id)].priority;
}

void
SimKernel::registerHandler(std::uint32_t kind, std::uint32_t aux,
                           Handler fire, PayloadCheck check)
{
    HDDTHERM_REQUIRE(kind != snap::kEvtClosure &&
                         kind != snap::kEvtPeriodic,
                     "the closure and periodic event kinds are built in");
    HDDTHERM_REQUIRE(bool(fire), "missing event handler");
    if (handlers_.size() <= kind)
        handlers_.resize(std::size_t(kind) + 1);
    auto& units = handlers_[kind];
    if (units.size() <= aux)
        units.resize(std::size_t(aux) + 1);
    HDDTHERM_REQUIRE(!units[aux].fire,
                     "event kind " + std::to_string(kind) + " already has "
                     "a handler for component " + std::to_string(aux));
    units[aux] = {std::move(fire), std::move(check)};
}

void
SimKernel::registerTask(std::uint32_t kind, PeriodicCallback cb)
{
    HDDTHERM_REQUIRE(kind != snap::kTaskClosure,
                     "the closure task kind is built in");
    HDDTHERM_REQUIRE(bool(cb), "missing periodic callback");
    if (task_kinds_.size() <= kind)
        task_kinds_.resize(std::size_t(kind) + 1);
    HDDTHERM_REQUIRE(!task_kinds_[kind], "periodic-task kind " +
                                             std::to_string(kind) +
                                             " registered twice");
    task_kinds_[kind] = std::move(cb);
}

bool
SimKernel::hasHandler(std::uint32_t kind, std::uint32_t aux) const
{
    return kind < handlers_.size() && aux < handlers_[kind].size() &&
           bool(handlers_[kind][aux].fire);
}

void
SimKernel::checkSchedule(SimTime when, DomainId domain) const
{
    HDDTHERM_REQUIRE(when >= now_, "cannot schedule into the past");
    HDDTHERM_REQUIRE(domain >= 0 && domain < domainCount(),
                     "unknown domain id");
}

void
SimKernel::schedule(SimTime when, DomainId domain, Callback cb)
{
    checkSchedule(when, domain);
    std::uint32_t slot;
    if (free_closures_.empty()) {
        slot = std::uint32_t(closures_.size());
        closures_.push_back(std::move(cb));
    } else {
        slot = free_closures_.back();
        free_closures_.pop_back();
        closures_[slot] = std::move(cb);
    }
    push(when, domain, next_seq_++, snap::kEvtClosure, 0, slot);
}

void
SimKernel::schedule(SimTime when, DomainId domain, std::uint32_t kind,
                    std::uint32_t aux, std::uint64_t payload)
{
    checkSchedule(when, domain);
    HDDTHERM_REQUIRE(hasHandler(kind, aux),
                     "no handler registered for event kind " +
                         std::to_string(kind));
    push(when, domain, next_seq_++, kind, aux, payload);
}

std::uint64_t
SimKernel::reserveSequences(std::uint64_t n)
{
    HDDTHERM_REQUIRE(n <= (std::uint64_t(1) << kSeqBits) - next_seq_,
                     "sequence reservation exceeds the 32-bit key field");
    const std::uint64_t first = next_seq_;
    next_seq_ += n;
    reserved_pending_ += n;
    return first;
}

void
SimKernel::scheduleReserved(SimTime when, DomainId domain,
                            std::uint64_t seq, std::uint32_t kind,
                            std::uint32_t aux, std::uint64_t payload)
{
    HDDTHERM_REQUIRE(seq < next_seq_ && reserved_pending_ > 0,
                     "sequence number was not reserved");
    checkSchedule(when, domain);
    HDDTHERM_REQUIRE(hasHandler(kind, aux),
                     "no handler registered for event kind " +
                         std::to_string(kind));
    push(when, domain, seq, kind, aux, payload);
    --reserved_pending_;
}

void
SimKernel::push(SimTime when, DomainId domain, std::uint64_t seq,
                std::uint32_t kind, std::uint32_t aux,
                std::uint64_t payload)
{
    // 2^32 events per kernel instance is far beyond any simulation here
    // (kernels are per drive / per fleet barrier loop), and the cap
    // fails loudly rather than silently mis-ordering.
    HDDTHERM_ASSERT(seq >> kSeqBits == 0);
    const Event ev{when,
                   domains_[std::size_t(domain)].key_base |
                       (seq << kDomainBits),
                   kind, aux, payload};
    if (sink_)
        emit(TraceKind::Scheduled, ev);
    heap_.push_back(ev);
    std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void
SimKernel::scheduleAfter(SimTime delay, DomainId domain, Callback cb)
{
    HDDTHERM_REQUIRE(delay >= 0.0, "negative delay");
    schedule(now_ + delay, domain, std::move(cb));
}

void
SimKernel::schedulePeriodic(DomainId domain, SimTime period,
                            PeriodicCallback cb)
{
    HDDTHERM_REQUIRE(bool(cb), "missing periodic callback");
    armTask(domain, period, snap::kTaskClosure, std::move(cb));
}

void
SimKernel::schedulePeriodic(DomainId domain, SimTime period,
                            std::uint32_t kind)
{
    HDDTHERM_REQUIRE(kind < task_kinds_.size() && bool(task_kinds_[kind]),
                     "no periodic task registered under kind " +
                         std::to_string(kind));
    armTask(domain, period, kind, task_kinds_[kind]);
}

void
SimKernel::armTask(DomainId domain, SimTime period, std::uint32_t kind,
                   PeriodicCallback cb)
{
    HDDTHERM_REQUIRE(period > 0.0, "period must be positive");
    checkSchedule(now_ + period, domain);
    periodic_.push_back({domain, period, kind, std::move(cb)});
    push(now_ + period, domain, next_seq_++, snap::kEvtPeriodic,
         std::uint32_t(periodic_.size() - 1), 0);
}

void
SimKernel::firePeriodic(std::uint32_t index)
{
    // The callback may arm further periodic tasks, reallocating the
    // vector mid-call, so the callable is moved out before it runs (an
    // inline-stored closure would otherwise be destroyed while
    // executing) and the task is re-indexed after it returns.
    PeriodicCallback cb = std::move(periodic_[index].cb);
    const std::size_t prev_firing = firing_periodic_;
    firing_periodic_ = index;
    const bool keep = cb();
    firing_periodic_ = prev_firing;
    if (!keep) {
        periodic_[index].cb = nullptr; // captured state dies with cb
        return;
    }
    PeriodicTask& task = periodic_[index];
    task.cb = std::move(cb);
    push(now_ + task.period, task.domain, next_seq_++, snap::kEvtPeriodic,
         index, 0);
}

bool
SimKernel::runNext()
{
    if (heap_.empty())
        return false;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const Event ev = heap_.back();
    heap_.pop_back();
    now_ = ev.when;
    ++fired_;
    if (sink_)
        emit(TraceKind::Fired, ev);
    switch (ev.kind) {
      case snap::kEvtClosure: {
        // Freed before the call, so the closure may schedule into its
        // own slot.
        Callback cb = std::exchange(closures_[ev.payload], nullptr);
        free_closures_.push_back(std::uint32_t(ev.payload));
        cb();
        break;
      }
      case snap::kEvtPeriodic:
        firePeriodic(ev.aux);
        break;
      default:
        handlers_[ev.kind][ev.aux].fire(ev.payload);
    }
    return true;
}

void
SimKernel::runUntil(SimTime limit)
{
    while (!heap_.empty() && heap_.front().when <= limit)
        runNext();
    if (now_ < limit)
        now_ = limit;
}

void
SimKernel::runAll()
{
    while (runNext()) {
    }
}

void
SimKernel::saveState(snap::StateWriter& w) const
{
    const std::size_t closures = closures_.size() - free_closures_.size();
    HDDTHERM_REQUIRE(closures == 0,
                     "cannot save kernel state: " +
                         std::to_string(closures) +
                         " pending event(s) are closures, which a "
                         "checkpoint cannot rebuild");
    HDDTHERM_REQUIRE(reserved_pending_ == 0,
                     "cannot save kernel state: " +
                         std::to_string(reserved_pending_) +
                         " reserved sequence number(s) stand for events "
                         "not yet scheduled (an active trace feed), which "
                         "a checkpoint would silently drop");

    w.f64("kernel.now", now_);
    w.u64("kernel.next_seq", next_seq_);
    w.u64("kernel.fired", fired_);

    // Domains are saved for validation only: restore requires the new
    // kernel to have registered the identical domain table, which a
    // rebuild from the same configuration guarantees.
    w.u64("kernel.domains", domains_.size());
    for (std::size_t i = 0; i < domains_.size(); ++i) {
        snap::ScopedPrefix scope(w, "domain" + std::to_string(i));
        w.str("name", domains_[i].name);
        w.i64("priority", domains_[i].priority);
    }

    // Dead tasks stay in the table so live indices — which pending
    // kEvtPeriodic events reference through their aux field — survive
    // the round trip unchanged.
    w.u64("kernel.tasks", periodic_.size());
    for (std::size_t i = 0; i < periodic_.size(); ++i) {
        const PeriodicTask& task = periodic_[i];
        // The task whose callback is executing right now (typically the
        // checkpoint writer itself) has its callable moved out for the
        // call, but it is very much alive.
        const bool alive = bool(task.cb) || i == firing_periodic_;
        HDDTHERM_REQUIRE(!alive || task.kind != snap::kTaskClosure,
                         "cannot save kernel state: a live periodic task "
                         "is a closure, which a checkpoint cannot rebuild");
        snap::ScopedPrefix scope(w, "task" + std::to_string(i));
        w.u64("kind", task.kind);
        w.u64("domain", std::uint64_t(task.domain));
        w.f64("period", task.period);
        w.boolean("alive", alive);
    }

    // The in-flight firing's re-fire event is scheduled only after its
    // callback returns, so it is absent from the heap below; record which
    // task is mid-firing so loadState() can re-arm it.  The re-arm
    // consumes the next sequence number — exactly the one the
    // uninterrupted run's post-return reschedule takes — so tie-break
    // order stays bit-identical.  (This is also why a task that
    // checkpoints from inside its own firing must keep ticking: a false
    // return would leave the restored run with a re-fire the original
    // never scheduled.)
    w.u64("kernel.firing_task", firing_periodic_ == kNoTask
                                    ? std::uint64_t(-1)
                                    : std::uint64_t(firing_periodic_));

    // Keys are unique, so sorting a copy into fire order serializes
    // identical kernel states to identical bytes whatever the heap
    // array's layout.
    std::vector<Event> events = heap_;
    std::sort(events.begin(), events.end(),
              [](const Event& a, const Event& b) { return Later{}(b, a); });
    w.u64("kernel.events", events.size());
    snap::BlobWriter blob;
    blob.reserve(events.size() * sizeof(Event));
    for (const Event& ev : events) {
        blob.f64(ev.when);
        blob.u64(ev.key);
        blob.u32(ev.kind);
        blob.u32(ev.aux);
        blob.u64(ev.payload);
    }
    w.bytes("kernel.event_blob", blob.take());
}

void
SimKernel::loadState(snap::StateReader& r)
{
    HDDTHERM_REQUIRE(heap_.empty() && periodic_.empty() && fired_ == 0,
                     "kernel restore requires a freshly built kernel");
    const auto where = [&r] {
        return "checkpoint section '" + r.section() + "': ";
    };

    now_ = r.f64("kernel.now");
    next_seq_ = r.u64("kernel.next_seq");
    fired_ = r.u64("kernel.fired");
    HDDTHERM_REQUIRE(next_seq_ >> kSeqBits == 0,
                     where() + "sequence counter out of range");

    const auto ndom = r.u64("kernel.domains");
    HDDTHERM_REQUIRE(ndom == domains_.size(),
                     where() + "clock-domain count differs from this "
                               "run's configuration");
    for (std::size_t i = 0; i < domains_.size(); ++i) {
        snap::ScopedPrefix scope(r, "domain" + std::to_string(i));
        const std::string name = r.str("name");
        const auto priority = r.i64("priority");
        HDDTHERM_REQUIRE(name == domains_[i].name &&
                             priority == domains_[i].priority,
                         where() + "clock domain '" + name +
                             "' does not match this run's configuration");
    }

    const auto ntask = r.u64("kernel.tasks");
    for (std::size_t i = 0; i < ntask; ++i) {
        snap::ScopedPrefix scope(r, "task" + std::to_string(i));
        const auto kind = r.u64("kind");
        const auto domain = r.u64("domain");
        const double period = r.f64("period");
        const bool alive = r.boolean("alive");
        HDDTHERM_REQUIRE(domain < std::uint64_t(domainCount()),
                         where() + "periodic task references an unknown "
                                   "clock domain");
        PeriodicCallback cb;
        if (alive) {
            HDDTHERM_REQUIRE(kind < task_kinds_.size() &&
                                 bool(task_kinds_[kind]),
                             where() + "no periodic task registered under "
                                       "kind " + std::to_string(kind));
            cb = task_kinds_[kind];
        }
        periodic_.push_back({DomainId(domain), period,
                             std::uint32_t(kind), std::move(cb)});
    }

    const auto firing = r.u64("kernel.firing_task");

    const auto nevents = r.u64("kernel.events");
    const auto raw = r.bytes("kernel.event_blob");
    snap::BlobReader blob("section '" + r.section() + "' events", raw);
    for (std::uint64_t e = 0; e < nevents; ++e) {
        Event ev;
        ev.when = blob.f64();
        ev.key = blob.u64();
        ev.kind = blob.u32();
        ev.aux = blob.u32();
        ev.payload = blob.u64();
        const std::uint64_t seq_mask = (std::uint64_t(1) << kSeqBits) - 1;
        const std::uint64_t domain =
            ev.key & ((std::uint64_t(1) << kDomainBits) - 1);
        HDDTHERM_REQUIRE(ev.when >= now_ &&
                             domain < std::uint64_t(domainCount()) &&
                             (ev.key & ~(seq_mask << kDomainBits)) ==
                                 domains_[domain].key_base &&
                             (ev.key >> kDomainBits & seq_mask) < next_seq_,
                         where() + "pending event has an invalid time or "
                                   "key");
        if (ev.kind == snap::kEvtPeriodic) {
            HDDTHERM_REQUIRE(ev.aux < periodic_.size() &&
                                 bool(periodic_[ev.aux].cb),
                             where() + "pending periodic event references "
                                       "a dead or missing task");
        } else {
            // Closures are never saved, so kEvtClosure has no handler.
            HDDTHERM_REQUIRE(hasHandler(ev.kind, ev.aux),
                             where() + "no handler registered for event "
                                       "kind " + std::to_string(ev.kind) +
                                       " of component " +
                                       std::to_string(ev.aux));
            const PayloadCheck& check = handlers_[ev.kind][ev.aux].check;
            HDDTHERM_REQUIRE(!check || check(ev.payload),
                             where() + "event of kind " +
                                 std::to_string(ev.kind) +
                                 " carries a payload its handler rejects");
        }
        // Events keep their original keys (sequence numbers included),
        // bypassing schedule(): tie-break order is restored exactly.
        heap_.push_back(ev);
    }
    HDDTHERM_REQUIRE(blob.atEnd(), where() + "trailing event bytes");
    std::make_heap(heap_.begin(), heap_.end(), Later{});

    // The checkpoint was written from inside this task's firing: its
    // re-fire event post-dates the save.  Re-arm it through the normal
    // schedule path, which assigns the same sequence number the
    // uninterrupted run's reschedule did.
    if (firing != std::uint64_t(-1)) {
        HDDTHERM_REQUIRE(firing < periodic_.size() &&
                             bool(periodic_[firing].cb),
                         where() + "the mid-firing periodic task is dead "
                                   "or missing");
        const PeriodicTask& task = periodic_[firing];
        push(now_ + task.period, task.domain, next_seq_++,
             snap::kEvtPeriodic, std::uint32_t(firing), 0);
    }
}

void
SimKernel::emit(TraceKind kind, const Event& ev)
{
    TraceEvent out;
    out.time = now_;
    out.when = ev.when;
    out.domain =
        DomainId(ev.key & ((std::uint64_t(1) << kDomainBits) - 1));
    out.domainName = domains_[std::size_t(out.domain)].name;
    out.kind = kind;
    // The id is the raw sequence number (priority and domain stripped).
    out.id = (ev.key >> kDomainBits) &
             ((std::uint64_t(1) << kSeqBits) - 1);
    sink_->onEvent(out);
}

} // namespace hddtherm::engine
