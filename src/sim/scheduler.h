/**
 * @file
 * Disk request schedulers: FCFS, SSTF and LOOK (elevator).
 *
 * The scheduler owns the per-disk pending queue and chooses the next
 * request given the current head cylinder.  DiskSim's default for the
 * paper-era experiments is FCFS at the device driver with the drive
 * reordering internally; we expose all three policies for the scheduling
 * ablation.
 */
#ifndef HDDTHERM_SIM_SCHEDULER_H
#define HDDTHERM_SIM_SCHEDULER_H

#include <vector>

#include "sim/request.h"

namespace hddtherm::snap {
class StateWriter;
class StateReader;
} // namespace hddtherm::snap

namespace hddtherm::sim {

/// Available scheduling policies.
enum class SchedulerPolicy
{
    Fcfs,     ///< First come, first served.
    Sstf,     ///< Shortest seek time first.
    Elevator, ///< LOOK: sweep up, then down.
};

/// Human-readable policy name.
const char* schedulerPolicyName(SchedulerPolicy policy);

/// Pending-request queue with a pluggable pick policy.
class Scheduler
{
  public:
    /// A queued request plus its pre-translated target cylinder.
    struct Entry
    {
        IoRequest request;
        int cylinder = 0;
    };

    explicit Scheduler(SchedulerPolicy policy);

    /// Enqueue a request bound for @p cylinder.
    void push(const IoRequest& request, int cylinder);

    /// True when no requests are pending.
    bool empty() const { return size() == 0; }

    /// Pending count.
    std::size_t size() const { return count_; }

    /**
     * Remove and return the next request to service given the current
     * head position.  Precondition: !empty().
     */
    Entry pop(int head_cylinder);

    /// Policy in force.
    SchedulerPolicy policy() const { return policy_; }

    /// Serialize the pending queue in arrival order (checkpoint support).
    void saveState(snap::StateWriter& w) const;

    /// Restore a queue written by saveState (policies must match).
    void loadState(snap::StateReader& r);

  private:
    /// Entries per chunk (a power of two).
    static constexpr std::size_t kChunk = 32;

    /// The @p i-th pending entry in arrival order.
    Entry& at(std::size_t i)
    {
        const std::size_t slot = front_ + i;
        return chunks_[slot / kChunk][slot % kChunk];
    }
    const Entry& at(std::size_t i) const
    {
        const std::size_t slot = front_ + i;
        return chunks_[slot / kChunk][slot % kChunk];
    }

    /// Remove and return the @p i-th pending entry, keeping the others
    /// in arrival order.
    Entry take(std::size_t i);

    SchedulerPolicy policy_;
    /// Pending entries in arrival order, stored from chunks_[0][front_]
    /// on.  A chunk emptied at the front is rotated to the back for
    /// reuse, so the storage follows the queue's peak length without
    /// growth copies, and a steady stream allocates nothing.
    std::vector<std::vector<Entry>> chunks_;
    std::size_t front_ = 0;
    std::size_t count_ = 0;
    bool sweep_up_ = true; ///< Elevator direction state.
};

} // namespace hddtherm::sim

#endif // HDDTHERM_SIM_SCHEDULER_H
