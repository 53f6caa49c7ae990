#include "sim/scheduler.h"

#include <algorithm>
#include <cstdlib>
#include "snap/state.h"

#include "obs/metrics.h"
#include "util/error.h"

namespace hddtherm::sim {

const char*
schedulerPolicyName(SchedulerPolicy policy)
{
    switch (policy) {
      case SchedulerPolicy::Fcfs:
        return "FCFS";
      case SchedulerPolicy::Sstf:
        return "SSTF";
      case SchedulerPolicy::Elevator:
        return "ELEVATOR";
    }
    return "UNKNOWN";
}

Scheduler::Scheduler(SchedulerPolicy policy) : policy_(policy) {}

void
Scheduler::push(const IoRequest& request, int cylinder)
{
    if (front_ + count_ == chunks_.size() * kChunk)
        chunks_.emplace_back(kChunk);
    at(count_++) = {request, cylinder};
    HDDTHERM_OBS_COUNT("sim.scheduler.pushed");
    HDDTHERM_OBS_GAUGE_SET("sim.scheduler.queue_depth", count_);
}

Scheduler::Entry
Scheduler::take(std::size_t i)
{
    const Entry out = at(i);
    if (i == 0) {
        ++front_;
    } else {
        for (std::size_t j = i; j + 1 < count_; ++j)
            at(j) = at(j + 1);
    }
    if (--count_ == 0) {
        front_ = 0;
    } else if (front_ == kChunk) {
        std::rotate(chunks_.begin(), chunks_.begin() + 1, chunks_.end());
        front_ = 0;
    }
    return out;
}

Scheduler::Entry
Scheduler::pop(int head_cylinder)
{
    HDDTHERM_REQUIRE(!empty(), "pop from empty scheduler");

    switch (policy_) {
      case SchedulerPolicy::Fcfs:
        return take(0);

      case SchedulerPolicy::Sstf: {
        std::size_t best = 0;
        int best_dist = std::abs(at(0).cylinder - head_cylinder);
        for (std::size_t i = 1; i < count_; ++i) {
            const int dist = std::abs(at(i).cylinder - head_cylinder);
            if (dist < best_dist) {
                best = i;
                best_dist = dist;
            }
        }
        return take(best);
      }

      case SchedulerPolicy::Elevator: {
        // LOOK: nearest request in the sweep direction; reverse when the
        // direction is exhausted.
        for (int attempt = 0; attempt < 2; ++attempt) {
            std::size_t best = count_;
            int best_dist = 0;
            for (std::size_t i = 0; i < count_; ++i) {
                const int delta = at(i).cylinder - head_cylinder;
                if (sweep_up_ ? delta < 0 : delta > 0)
                    continue;
                const int dist = std::abs(delta);
                if (best == count_ || dist < best_dist) {
                    best = i;
                    best_dist = dist;
                }
            }
            if (best != count_)
                return take(best);
            sweep_up_ = !sweep_up_;
        }
        HDDTHERM_ASSERT(false && "elevator found no request");
        return take(0);
      }
    }
    HDDTHERM_ASSERT(false && "unknown scheduler policy");
    return take(0);
}


void
Scheduler::saveState(snap::StateWriter& w) const
{
    w.str("policy", schedulerPolicyName(policy_));
    w.boolean("sweep_up", sweep_up_);
    snap::BlobWriter blob;
    for (std::size_t i = 0; i < count_; ++i) {
        const Entry& entry = at(i);
        std::uint64_t words[5];
        packIoRequest(entry.request, words);
        for (const auto word : words)
            blob.u64(word);
        blob.i64(entry.cylinder);
    }
    w.u64("queued", count_);
    w.bytes("queue_blob", blob.take());
}

void
Scheduler::loadState(snap::StateReader& r)
{
    const std::string policy = r.str("policy");
    HDDTHERM_REQUIRE(policy == schedulerPolicyName(policy_),
                     "checkpoint section '" + r.section() +
                         "': scheduler policy '" + policy +
                         "' does not match this run's configuration");
    sweep_up_ = r.boolean("sweep_up");
    const auto count = r.u64("queued");
    const auto raw = r.bytes("queue_blob");
    snap::BlobReader blob("section '" + r.section() + "' scheduler queue",
                          raw);
    front_ = 0;
    count_ = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
        std::uint64_t words[5];
        for (auto& word : words)
            word = blob.u64();
        const IoRequest request = unpackIoRequest(words);
        push(request, int(blob.i64()));
    }
    HDDTHERM_REQUIRE(blob.atEnd(), "checkpoint section '" + r.section() +
                                       "' carries trailing queue bytes");
}

} // namespace hddtherm::sim
