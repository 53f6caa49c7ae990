#include "sim/hybrid.h"

#include <algorithm>

#include "util/error.h"

namespace hddtherm::sim {

HybridSystem::HybridSystem(const HybridConfig& config)
    : config_(config), domain_(events_.registerDomain("storage"))
{
    HDDTHERM_REQUIRE(config_.extentSectors >= 8,
                     "extent granularity too small");
    primary_ = std::make_unique<SimDisk>(events_, config_.primary, 0);
    cache_ = std::make_unique<SimDisk>(events_, config_.cacheDisk, 1);
    max_resident_ = cache_->totalSectors() / config_.extentSectors;
    HDDTHERM_REQUIRE(max_resident_ >= 1,
                     "cache disk smaller than one extent");
    free_slots_.reserve(std::size_t(max_resident_));
    for (std::int64_t s = max_resident_; s-- > 0;)
        free_slots_.push_back(s);

    const auto handler = [this](const IoRequest& sub, engine::SimTime finish) {
        onDiskComplete(sub, finish);
    };
    primary_->setCompletionHandler(handler);
    cache_->setCompletionHandler(handler);
}

bool
HybridSystem::resident(std::int64_t lba, int sectors) const
{
    const std::int64_t first = extentOf(lba);
    const std::int64_t last = extentOf(lba + sectors - 1);
    for (std::int64_t e = first; e <= last; ++e) {
        if (!resident_.count(e))
            return false;
    }
    return true;
}

std::vector<std::int64_t>
HybridSystem::ensureResident(std::int64_t lba, int sectors)
{
    std::vector<std::int64_t> inserted;
    const std::int64_t first = extentOf(lba);
    const std::int64_t last = extentOf(lba + sectors - 1);
    for (std::int64_t e = first; e <= last; ++e) {
        auto it = resident_.find(e);
        if (it != resident_.end()) {
            lru_.splice(lru_.begin(), lru_, it->second.lru);
            continue;
        }
        if (free_slots_.empty()) {
            // Evict the least recently used extent.
            const std::int64_t victim = lru_.back();
            lru_.pop_back();
            auto vit = resident_.find(victim);
            HDDTHERM_ASSERT(vit != resident_.end());
            free_slots_.push_back(vit->second.slot);
            resident_.erase(vit);
            ++stats_.evictions;
        }
        const std::int64_t slot = free_slots_.back();
        free_slots_.pop_back();
        lru_.push_front(e);
        resident_.emplace(e, Residency{slot, lru_.begin()});
        inserted.push_back(e);
    }
    return inserted;
}

std::int64_t
HybridSystem::cacheLba(std::int64_t lba) const
{
    const auto it = resident_.find(extentOf(lba));
    HDDTHERM_ASSERT(it != resident_.end());
    return it->second.slot * config_.extentSectors +
           lba % config_.extentSectors;
}

void
HybridSystem::submit(const IoRequest& request)
{
    HDDTHERM_REQUIRE(request.sectors >= 1, "empty request");
    HDDTHERM_REQUIRE(request.lba >= 0 &&
                         request.lba + request.sectors <= logicalSectors(),
                     "request beyond logical capacity");
    // Arrivals earlier than the current simulated time (e.g. re-running
    // a workload on a warm hierarchy) dispatch immediately.
    events_.schedule(std::max(events_.now(), request.arrival), domain_,
                     [this, request] { dispatch(request); });
}

ResponseMetrics
HybridSystem::run(const std::vector<IoRequest>& workload)
{
    metrics_ = ResponseMetrics();
    for (const auto& req : workload)
        submit(req);
    events_.runAll();
    HDDTHERM_ASSERT(reported_.empty());
    return metrics_;
}

void
HybridSystem::dispatch(const IoRequest& request)
{
    if (!request.isWrite() && resident(request.lba, request.sectors)) {
        // Cache hit: serve from the cache disk, splitting at extent
        // boundaries (slots need not be contiguous).
        ++stats_.readHits;
        std::int64_t cur = request.lba;
        int remaining = request.sectors;
        while (remaining > 0) {
            const std::int64_t in_extent =
                config_.extentSectors - cur % config_.extentSectors;
            const int len =
                int(std::min<std::int64_t>(remaining, in_extent));
            IoRequest sub = request;
            sub.id = next_sub_id_++;
            sub.device = 1;
            sub.lba = cacheLba(cur);
            sub.sectors = len;
            reported_.emplace(sub.id,
                              Pending{request.id, request.arrival});
            // Touch LRU for the extents served.
            ensureResident(cur, len);
            cache_->submit(sub);
            cur += len;
            remaining -= len;
        }
        return;
    }

    // Data path via the primary.
    IoRequest sub = request;
    sub.id = next_sub_id_++;
    sub.device = 0;
    reported_.emplace(sub.id, Pending{request.id, request.arrival});
    primary_->submit(sub);

    if (!request.isWrite()) {
        ++stats_.readMisses;
        if (config_.promoteOnMiss) {
            // Background promotion: install residency and write the new
            // extents to the cache disk (fire and forget).
            for (const std::int64_t e :
                 ensureResident(request.lba, request.sectors)) {
                ++stats_.promotions;
                IoRequest promo;
                promo.id = next_sub_id_++;
                promo.arrival = events_.now();
                promo.device = 1;
                promo.lba = resident_.at(e).slot * config_.extentSectors;
                promo.sectors = int(config_.extentSectors);
                promo.type = IoType::Write;
                cache_->submit(promo);
            }
        }
    } else {
        // Keep any resident cached extents fresh (write-through to both
        // members); non-resident extents are untouched, so residency can
        // never go stale.
        std::int64_t cur = request.lba;
        int remaining = request.sectors;
        while (remaining > 0) {
            const std::int64_t in_extent =
                config_.extentSectors - cur % config_.extentSectors;
            const int len =
                int(std::min<std::int64_t>(remaining, in_extent));
            if (resident_.count(extentOf(cur))) {
                IoRequest update = request;
                update.id = next_sub_id_++;
                update.arrival = events_.now();
                update.device = 1;
                update.lba = cacheLba(cur);
                update.sectors = len;
                update.type = IoType::Write;
                cache_->submit(update); // not reported
            }
            cur += len;
            remaining -= len;
        }
    }
}

void
HybridSystem::onDiskComplete(const IoRequest& sub, engine::SimTime finish)
{
    const auto it = reported_.find(sub.id);
    if (it == reported_.end())
        return; // maintenance traffic (promotion / cache update)

    // Multi-sub cache reads report when their last piece finishes; pieces
    // of the same logical request share the logical id.
    const Pending pending = it->second;
    reported_.erase(it);
    for (const auto& [other_id, other] : reported_) {
        (void)other_id;
        if (other.id == pending.id)
            return; // siblings still in flight
    }
    IoCompletion done;
    done.id = pending.id;
    done.arrival = pending.arrival;
    done.finish = finish;
    metrics_.record(done);
}

} // namespace hddtherm::sim
