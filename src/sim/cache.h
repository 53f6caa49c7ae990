/**
 * @file
 * On-board disk buffer: a segmented extent cache with read-ahead.
 *
 * Real drive buffers hold a handful of contiguous extents (segments), each
 * typically filled by a media read that continues past the requested data
 * to the end of the track.  A read hits only when fully contained in one
 * segment; segments are recycled LRU.  Writes are modeled write-through:
 * they still pay the media visit but leave their extent cached.  The
 * paper's workload study gives each simulated drive a 4 MB cache.
 */
#ifndef HDDTHERM_SIM_CACHE_H
#define HDDTHERM_SIM_CACHE_H

#include <cstdint>
#include <vector>

namespace hddtherm::snap {
class StateWriter;
class StateReader;
} // namespace hddtherm::snap

namespace hddtherm::sim {

/// Cache hit/miss statistics.
struct CacheStats
{
    std::uint64_t readHits = 0;
    std::uint64_t readMisses = 0;

    /// Read hit ratio (0 when no reads were seen).
    double hitRatio() const
    {
        const auto total = readHits + readMisses;
        return total ? double(readHits) / double(total) : 0.0;
    }
};

/// Segmented extent cache.
class DiskCache
{
  public:
    /**
     * @param capacity_bytes total buffer capacity (512-byte sectors).
     * @param segments number of independent extents.
     */
    DiskCache(std::size_t capacity_bytes, int segments);

    /// Sectors each segment can hold.
    std::int64_t segmentSectors() const { return segment_sectors_; }

    /**
     * Read lookup: true (and a hit is recorded) when [lba, lba+sectors) is
     * fully inside one cached segment; the segment becomes most recent.
     */
    bool read(std::int64_t lba, int sectors);

    /**
     * Install an extent after a media access (read fill incl. read-ahead,
     * or a write-through).  The extent is clipped to the segment size and
     * replaces the least recently used segment.
     */
    void install(std::int64_t lba, std::int64_t sectors);

    /// Drop all cached extents.
    void clear();

    /// Statistics so far.
    const CacheStats& stats() const { return stats_; }

    /// Number of segments currently holding data.
    int activeSegments() const { return int(segments_.size()); }

    /// Serialize segment contents in recency order (checkpoint support).
    void saveState(snap::StateWriter& w) const;

    /// Restore contents written by saveState.
    void loadState(snap::StateReader& r);

  private:
    struct Segment
    {
        std::int64_t start;
        std::int64_t length;
    };

    /// Move segment @p i to the front, keeping the others' order.
    void promote(std::size_t i);

    std::int64_t segment_sectors_;
    int max_segments_;
    /// Front = most recently used.  Capacity is reserved for
    /// max_segments_ up front, so lookups and installs never allocate.
    std::vector<Segment> segments_;
    CacheStats stats_;
};

} // namespace hddtherm::sim

#endif // HDDTHERM_SIM_CACHE_H
