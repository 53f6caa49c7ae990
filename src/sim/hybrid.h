/**
 * @file
 * Cache-disk hierarchy (paper §5.4).
 *
 * The paper sketches a two-disk organization for raising data rates inside
 * thermal bounds: a large platter runs slow (its envelope caps the RPM)
 * while a small platter — thermally allowed to spin much faster — serves
 * as a disk cache in front of it, in the spirit of DCD cache-disks
 * [Hu & Yang 1996].
 *
 * HybridSystem implements it: reads whose extents are resident on the
 * cache disk are served there; misses are served by the primary and the
 * touched extents are promoted in the background; writes go to the
 * primary (write-through), updating any resident cached copy.  Residency
 * is tracked at a fixed extent granularity with LRU replacement.
 */
#ifndef HDDTHERM_SIM_HYBRID_H
#define HDDTHERM_SIM_HYBRID_H

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>

#include "sim/disk.h"
#include "sim/metrics.h"

namespace hddtherm::sim {

/// Configuration of the two-disk hierarchy.
struct HybridConfig
{
    DiskConfig primary;   ///< Large, slow member (defines the capacity).
    DiskConfig cacheDisk; ///< Small, fast member.
    /// Residency granularity in sectors (default 1 MB).
    std::int64_t extentSectors = 2048;
    /// Promote read-missed extents to the cache disk in the background.
    bool promoteOnMiss = true;
};

/// Statistics of the hierarchy's cache behaviour.
struct HybridStats
{
    std::uint64_t readHits = 0;    ///< Reads served by the cache disk.
    std::uint64_t readMisses = 0;  ///< Reads served by the primary.
    std::uint64_t promotions = 0;  ///< Extents copied to the cache disk.
    std::uint64_t evictions = 0;   ///< Extents displaced from residency.

    double hitRatio() const
    {
        const auto total = readHits + readMisses;
        return total ? double(readHits) / double(total) : 0.0;
    }
};

/// A large slow disk fronted by a small fast cache disk.
class HybridSystem
{
  public:
    explicit HybridSystem(const HybridConfig& config);

    HybridSystem(const HybridSystem&) = delete;
    HybridSystem& operator=(const HybridSystem&) = delete;

    /// User capacity (the primary's).
    std::int64_t logicalSectors() const { return primary_->totalSectors(); }

    /// Extents the cache disk can hold.
    std::int64_t cacheExtents() const { return max_resident_; }

    /// Schedule a logical request at its arrival time.
    void submit(const IoRequest& request);

    /// Submit a workload, run to completion, return response metrics.
    ResponseMetrics run(const std::vector<IoRequest>& workload);

    /// Shared event queue.
    engine::SimKernel& events() { return events_; }

    /// Member access (0 = primary, 1 = cache disk).
    SimDisk& primary() { return *primary_; }
    SimDisk& cacheDisk() { return *cache_; }

    /// Hierarchy statistics.
    const HybridStats& stats() const { return stats_; }

    /// Response metrics so far.
    const ResponseMetrics& metrics() const { return metrics_; }

  private:
    /// Extent index of an LBA.
    std::int64_t extentOf(std::int64_t lba) const
    {
        return lba / config_.extentSectors;
    }

    /// True when every extent of [lba, lba+sectors) is resident.
    bool resident(std::int64_t lba, int sectors) const;

    /// Touch (MRU) or insert residency for the extents of a range;
    /// returns the newly inserted extents.
    std::vector<std::int64_t> ensureResident(std::int64_t lba,
                                             int sectors);

    /// Cache-disk LBA corresponding to a primary LBA (must be resident).
    std::int64_t cacheLba(std::int64_t lba) const;

    void dispatch(const IoRequest& request);
    void onDiskComplete(const IoRequest& sub, engine::SimTime finish);

    HybridConfig config_;
    engine::SimKernel events_;
    engine::DomainId domain_; ///< Storage clock domain of events_.
    std::unique_ptr<SimDisk> primary_;
    std::unique_ptr<SimDisk> cache_;
    ResponseMetrics metrics_;
    HybridStats stats_;

    /// extent -> (cache slot, LRU iterator).
    struct Residency
    {
        std::int64_t slot;
        std::list<std::int64_t>::iterator lru;
    };
    std::unordered_map<std::int64_t, Residency> resident_;
    std::list<std::int64_t> lru_; ///< Front = most recently used extent.
    std::vector<std::int64_t> free_slots_;
    std::int64_t max_resident_ = 0;

    /// In-flight *reported* subs: sub id -> logical (id, arrival).
    struct Pending
    {
        std::uint64_t id;
        engine::SimTime arrival;
    };
    std::unordered_map<std::uint64_t, Pending> reported_;
    std::uint64_t next_sub_id_ = 1;
};

} // namespace hddtherm::sim

#endif // HDDTHERM_SIM_HYBRID_H
