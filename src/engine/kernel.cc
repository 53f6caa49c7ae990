#include "engine/kernel.h"

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
SimKernel::schedule(SimTime when, DomainId domain, Callback cb)
{
    scheduleImpl(when, domain, next_seq_, nullptr, std::move(cb));
    ++next_seq_;
}

void
SimKernel::schedule(SimTime when, DomainId domain,
                    const snap::EventTag& tag, Callback cb)
{
    scheduleImpl(when, domain, next_seq_, &tag, std::move(cb));
    ++next_seq_;
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
                            std::uint64_t seq, const snap::EventTag& tag,
                            Callback cb)
{
    HDDTHERM_REQUIRE(seq < next_seq_ && reserved_pending_ > 0,
                     "sequence number was not reserved");
    scheduleImpl(when, domain, seq, &tag, std::move(cb));
    --reserved_pending_;
}

void
SimKernel::scheduleImpl(SimTime when, DomainId domain, std::uint64_t seq,
                        const snap::EventTag* tag, Callback cb)
{
    HDDTHERM_REQUIRE(when >= now_, "cannot schedule into the past");
    HDDTHERM_REQUIRE(domain >= 0 && domain < domainCount(),
                     "unknown domain id");
    // 2^32 events per kernel instance is far beyond any simulation here
    // (kernels are per drive / per fleet barrier loop), and the cap
    // fails loudly rather than silently mis-ordering.
    HDDTHERM_ASSERT(seq >> kSeqBits == 0);
    Event ev{when,
             domains_[std::size_t(domain)].key_base | (seq << kDomainBits),
             std::move(cb)};
    if (snapshots_) {
        if (tag)
            tags_.insert(seqOf(ev.key), *tag);
        else
            ++untagged_pending_;
    }
    if (sink_)
        emit(TraceKind::Scheduled, ev);
    heap_.push(std::move(ev));
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
    schedulePeriodic(domain, period, std::string(), std::move(cb));
}

void
SimKernel::schedulePeriodic(DomainId domain, SimTime period,
                            std::string name, PeriodicCallback cb)
{
    HDDTHERM_REQUIRE(period > 0.0, "period must be positive");
    HDDTHERM_REQUIRE(bool(cb), "missing periodic callback");
    HDDTHERM_REQUIRE(!snapshots_ || !name.empty(),
                     "a snapshot-enabled kernel requires named periodic "
                     "tasks");
    periodic_.push_back({domain, period, std::move(cb), std::move(name)});
    const std::size_t index = periodic_.size() - 1;
    snap::EventTag tag;
    tag.kind = snap::kEvtPeriodic;
    tag.aux = std::uint32_t(index);
    schedule(now_ + period, domain, tag,
             [this, index] { firePeriodic(index); });
}

void
SimKernel::firePeriodic(std::size_t index)
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
    snap::EventTag tag;
    tag.kind = snap::kEvtPeriodic;
    tag.aux = std::uint32_t(index);
    schedule(now_ + task.period, task.domain, tag,
             [this, index] { firePeriodic(index); });
}

bool
SimKernel::runNext()
{
    if (heap_.empty())
        return false;
    // Move out before pop so the callback may schedule new events.  The
    // const_cast is the standard priority_queue escape hatch: top() is
    // const-qualified only to protect the heap order, which pop()
    // re-establishes immediately.
    Event ev = std::move(const_cast<Event&>(heap_.top()));
    heap_.pop();
    now_ = ev.when;
    ++fired_;
    if (snapshots_) {
        if (!tags_.erase(seqOf(ev.key)))
            --untagged_pending_;
    }
    if (sink_)
        emit(TraceKind::Fired, ev);
    ev.cb();
    return true;
}

void
SimKernel::runUntil(SimTime limit)
{
    while (!heap_.empty() && heap_.top().when <= limit)
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
SimKernel::enableSnapshots(bool on)
{
    if (on == snapshots_)
        return;
    HDDTHERM_REQUIRE(heap_.empty() && periodic_.empty() &&
                         reserved_pending_ == 0,
                     "snapshot bookkeeping must be toggled on an idle "
                     "kernel (before any event or periodic task exists)");
    snapshots_ = on;
    tags_.clear();
    untagged_pending_ = 0;
}

void
SimKernel::saveState(snap::StateWriter& w) const
{
    HDDTHERM_REQUIRE(snapshots_,
                     "cannot save kernel state: snapshots are not enabled "
                     "on this kernel");
    HDDTHERM_REQUIRE(untagged_pending_ == 0,
                     "cannot save kernel state: " +
                         std::to_string(untagged_pending_) +
                         " pending event(s) were scheduled without a "
                         "snapshot tag and cannot be reconstructed");
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
        HDDTHERM_REQUIRE(!alive || !task.name.empty(),
                         "cannot save kernel state: a live periodic task "
                         "has no name to restore it by");
        snap::ScopedPrefix scope(w, "task" + std::to_string(i));
        w.str("name", task.name);
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

    // Draining a copy of the heap yields events in exact fire order, so
    // identical kernel states serialize to identical bytes regardless of
    // the heap array's internal layout.
    w.u64("kernel.events", heap_.size());
    snap::BlobWriter blob;
    blob.reserve(heap_.size() * 72);
    auto copy = heap_;
    while (!copy.empty()) {
        const Event& ev = copy.top();
        const snap::EventTag* tag = tags_.find(seqOf(ev.key));
        HDDTHERM_ASSERT(tag != nullptr);
        blob.f64(ev.when);
        blob.u64(ev.key);
        blob.u32(tag->kind);
        blob.u32(tag->aux);
        blob.words(tag->w.data(), tag->w.size());
        copy.pop();
    }
    w.bytes("kernel.event_blob", blob.take());
}

void
SimKernel::loadState(snap::StateReader& r, const EventResolver& events,
                     const TaskResolver& tasks)
{
    HDDTHERM_REQUIRE(snapshots_,
                     "enable snapshots before restoring a kernel");
    HDDTHERM_REQUIRE(heap_.empty() && periodic_.empty() && fired_ == 0,
                     "kernel restore requires a freshly built kernel");

    now_ = r.f64("kernel.now");
    next_seq_ = r.u64("kernel.next_seq");
    fired_ = r.u64("kernel.fired");

    const auto ndom = r.u64("kernel.domains");
    HDDTHERM_REQUIRE(ndom == domains_.size(),
                     "checkpoint section '" + r.section() +
                         "': clock-domain count differs from this run's "
                         "configuration");
    for (std::size_t i = 0; i < domains_.size(); ++i) {
        snap::ScopedPrefix scope(r, "domain" + std::to_string(i));
        const std::string name = r.str("name");
        const auto priority = r.i64("priority");
        HDDTHERM_REQUIRE(name == domains_[i].name &&
                             priority == domains_[i].priority,
                         "checkpoint section '" + r.section() +
                             "': clock domain '" + name +
                             "' does not match this run's configuration");
    }

    const auto ntask = r.u64("kernel.tasks");
    for (std::size_t i = 0; i < ntask; ++i) {
        snap::ScopedPrefix scope(r, "task" + std::to_string(i));
        std::string name = r.str("name");
        const auto domain = r.u64("domain");
        const double period = r.f64("period");
        const bool alive = r.boolean("alive");
        HDDTHERM_REQUIRE(domain < std::uint64_t(domainCount()),
                         "checkpoint section '" + r.section() +
                             "': periodic task references an unknown "
                             "clock domain");
        PeriodicCallback cb;
        if (alive) {
            HDDTHERM_REQUIRE(bool(tasks),
                             "checkpoint section '" + r.section() +
                                 "': no task resolver provided for "
                                 "periodic task '" + name + "'");
            cb = tasks(name);
            HDDTHERM_REQUIRE(bool(cb),
                             "checkpoint section '" + r.section() +
                                 "': the task resolver cannot rebuild "
                                 "periodic task '" + name + "'");
        }
        periodic_.push_back(
            {DomainId(domain), period, std::move(cb), std::move(name)});
    }

    const auto firing = r.u64("kernel.firing_task");

    const auto nevents = r.u64("kernel.events");
    const auto raw = r.bytes("kernel.event_blob");
    snap::BlobReader blob("section '" + r.section() + "' events", raw);
    for (std::uint64_t e = 0; e < nevents; ++e) {
        const double when = blob.f64();
        const std::uint64_t key = blob.u64();
        snap::EventTag tag;
        tag.kind = blob.u32();
        tag.aux = blob.u32();
        for (auto& word : tag.w)
            word = blob.u64();

        Callback cb;
        if (tag.kind == snap::kEvtPeriodic) {
            const std::size_t index = tag.aux;
            HDDTHERM_REQUIRE(index < periodic_.size() &&
                                 bool(periodic_[index].cb),
                             "checkpoint section '" + r.section() +
                                 "': pending periodic event references a "
                                 "dead or missing task");
            cb = [this, index] { firePeriodic(index); };
        } else {
            HDDTHERM_REQUIRE(bool(events),
                             "checkpoint section '" + r.section() +
                                 "': no event resolver provided");
            cb = events(tag);
            HDDTHERM_REQUIRE(bool(cb),
                             "checkpoint section '" + r.section() +
                                 "': the event resolver cannot rebuild "
                                 "an event of kind " +
                                 std::to_string(tag.kind));
        }
        // Events keep their original keys (sequence numbers included),
        // bypassing schedule(): tie-break order is restored exactly.
        tags_.insert(seqOf(key), tag);
        heap_.push(Event{when, key, std::move(cb)});
    }
    HDDTHERM_REQUIRE(blob.atEnd(), "checkpoint section '" + r.section() +
                                       "' carries trailing event bytes");

    // The checkpoint was written from inside this task's firing: its
    // re-fire event post-dates the save.  Re-arm it through the normal
    // schedule path, which assigns the same sequence number the
    // uninterrupted run's reschedule did.
    if (firing != std::uint64_t(-1)) {
        const std::size_t index = std::size_t(firing);
        HDDTHERM_REQUIRE(index < periodic_.size() &&
                             bool(periodic_[index].cb),
                         "checkpoint section '" + r.section() +
                             "': the mid-firing periodic task is dead or "
                             "missing");
        const PeriodicTask& task = periodic_[index];
        snap::EventTag tag;
        tag.kind = snap::kEvtPeriodic;
        tag.aux = std::uint32_t(index);
        schedule(now_ + task.period, task.domain, tag,
                 [this, index] { firePeriodic(index); });
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
