#include "sim/cache.h"

#include <algorithm>
#include "snap/state.h"

#include "obs/metrics.h"
#include "util/error.h"
#include "util/units.h"

namespace hddtherm::sim {

DiskCache::DiskCache(std::size_t capacity_bytes, int segments)
    : max_segments_(segments)
{
    HDDTHERM_REQUIRE(segments >= 1, "need at least one cache segment");
    const auto total_sectors =
        std::int64_t(capacity_bytes / std::size_t(util::kSectorBytes));
    segment_sectors_ = total_sectors / segments;
    HDDTHERM_REQUIRE(segment_sectors_ >= 1,
                     "cache too small for the segment count");
    segments_.reserve(std::size_t(segments));
}

void
DiskCache::promote(std::size_t i)
{
    std::rotate(segments_.begin(), segments_.begin() + std::ptrdiff_t(i),
                segments_.begin() + std::ptrdiff_t(i) + 1);
}

bool
DiskCache::read(std::int64_t lba, int sectors)
{
    HDDTHERM_REQUIRE(sectors >= 1, "empty read");
    for (std::size_t i = 0; i < segments_.size(); ++i) {
        const Segment& seg = segments_[i];
        if (lba >= seg.start && lba + sectors <= seg.start + seg.length) {
            promote(i);
            ++stats_.readHits;
            HDDTHERM_OBS_COUNT("sim.cache.read_hit");
            return true;
        }
    }
    ++stats_.readMisses;
    HDDTHERM_OBS_COUNT("sim.cache.read_miss");
    return false;
}

void
DiskCache::install(std::int64_t lba, std::int64_t sectors)
{
    HDDTHERM_REQUIRE(sectors >= 1, "empty install");
    const std::int64_t length = std::min(sectors, segment_sectors_);

    // Reuse a segment this extent overlaps (the common sequential-stream
    // case) instead of fragmenting the extent across segments.
    for (std::size_t i = 0; i < segments_.size(); ++i) {
        Segment& seg = segments_[i];
        if (lba < seg.start + seg.length && seg.start < lba + length) {
            seg = {lba, length};
            promote(i);
            return;
        }
    }

    if (int(segments_.size()) == max_segments_)
        segments_.pop_back();
    segments_.insert(segments_.begin(), {lba, length});
}

void
DiskCache::clear()
{
    segments_.clear();
}


void
DiskCache::saveState(snap::StateWriter& w) const
{
    // Front-to-back is MRU-to-LRU order; replaying install order on load
    // reconstructs the recency list exactly.
    snap::BlobWriter blob;
    for (const auto& seg : segments_) {
        blob.i64(seg.start);
        blob.i64(seg.length);
    }
    w.u64("segments", segments_.size());
    w.bytes("segment_blob", blob.take());
    w.u64("read_hits", stats_.readHits);
    w.u64("read_misses", stats_.readMisses);
}

void
DiskCache::loadState(snap::StateReader& r)
{
    const auto count = r.u64("segments");
    HDDTHERM_REQUIRE(count <= std::uint64_t(max_segments_),
                     "checkpoint section '" + r.section() +
                         "': cached segment count exceeds this cache's "
                         "configuration");
    const auto raw = r.bytes("segment_blob");
    snap::BlobReader blob("section '" + r.section() + "' cache segments",
                          raw);
    segments_.clear();
    for (std::uint64_t i = 0; i < count; ++i) {
        Segment seg;
        seg.start = blob.i64();
        seg.length = blob.i64();
        segments_.push_back(seg);
    }
    HDDTHERM_REQUIRE(blob.atEnd(), "checkpoint section '" + r.section() +
                                       "' carries trailing cache bytes");
    stats_.readHits = r.u64("read_hits");
    stats_.readMisses = r.u64("read_misses");
}

} // namespace hddtherm::sim
