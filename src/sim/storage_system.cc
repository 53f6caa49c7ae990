#include "sim/storage_system.h"

#include <algorithm>
#include <numeric>
#include <span>

#include "obs/metrics.h"
#include "snap/state.h"
#include "util/error.h"

namespace hddtherm::sim {

StorageSystem::StorageSystem(const SystemConfig& config)
    : config_(config), domain_(events_.registerDomain("storage"))
{
    HDDTHERM_REQUIRE(config_.disks >= 1, "need at least one disk");
    if (config_.raid == RaidLevel::Raid5)
        HDDTHERM_REQUIRE(config_.disks >= 3,
                         "RAID-5 needs at least three disks");
    if (config_.raid == RaidLevel::Raid1)
        HDDTHERM_REQUIRE(config_.disks >= 2,
                         "RAID-1 needs at least two disks");
    HDDTHERM_REQUIRE(config_.stripeSectors >= 1,
                     "stripe unit must be positive");
    disks_.reserve(std::size_t(config_.disks));
    for (int i = 0; i < config_.disks; ++i) {
        disks_.push_back(
            std::make_unique<SimDisk>(events_, config_.disk, i));
        disks_.back()->setCompletionHandler(
            [this](const IoRequest& sub, engine::SimTime finish) {
                onSubComplete(sub, finish);
            });
    }
    events_.registerHandler(
        snap::kEvtArrival, 0,
        [this](std::uint64_t slot) { arrive(std::uint32_t(slot)); },
        [this](std::uint64_t slot) {
            return slot < arrivals_.size() && arrivals_[slot].pending;
        });
}

std::int64_t
StorageSystem::logicalSectors() const
{
    return arrayLogicalSectors(config_.raid, config_.disks,
                               disks_.front()->totalSectors());
}

void
StorageSystem::setCompletionCallback(CompletionCallback cb)
{
    callback_ = std::move(cb);
}

void
StorageSystem::validate(const IoRequest& request) const
{
    HDDTHERM_REQUIRE(request.sectors >= 1, "empty request");
    HDDTHERM_REQUIRE(request.lba >= 0 &&
                         request.lba + request.sectors <= logicalSectors(),
                     "request beyond logical capacity");
    if (config_.raid == RaidLevel::None) {
        HDDTHERM_REQUIRE(request.device >= 0 &&
                             request.device < config_.disks,
                         "device id out of range");
    }
    HDDTHERM_REQUIRE(request.arrival >= events_.now(),
                     "cannot schedule into the past");
}

std::uint32_t
StorageSystem::holdArrival(const IoRequest& request, bool fed)
{
    std::uint32_t slot;
    if (free_arrivals_.empty()) {
        slot = std::uint32_t(arrivals_.size());
        arrivals_.emplace_back();
    } else {
        std::pop_heap(free_arrivals_.begin(), free_arrivals_.end(),
                      std::greater<>());
        slot = free_arrivals_.back();
        free_arrivals_.pop_back();
    }
    arrivals_[slot] = {request, true, fed};
    return slot;
}

void
StorageSystem::arrive(std::uint32_t slot)
{
    Arrival& arrival = arrivals_[slot];
    arrival.pending = false;
    const IoRequest request = arrival.request;
    const bool fed = arrival.fed;
    free_arrivals_.push_back(slot);
    std::push_heap(free_arrivals_.begin(), free_arrivals_.end(),
                   std::greater<>());
    if (fed) {
        --feed_live_;
        if (feeding())
            feedNext();
    }
    dispatch(request);
}

void
StorageSystem::submit(const IoRequest& request)
{
    validate(request);
    HDDTHERM_OBS_COUNT("sim.system.submitted");
    events_.schedule(request.arrival, domain_, snap::kEvtArrival, 0,
                     holdArrival(request, false));
}

ResponseMetrics
StorageSystem::run(const std::vector<IoRequest>& workload)
{
    HDDTHERM_REQUIRE(feed_live_ == 0,
                     "run() called while arrivals of an earlier run() are "
                     "still pending");
    for (const auto& req : workload)
        validate(req);
    HDDTHERM_OBS_ADD("sim.system.submitted", workload.size());
    resetMetrics();

    // Eager submission gave request i the sequence number base + i, so
    // arrivals fired in (arrival, index) order.  Feeding them in that
    // order under those same numbers keeps every heap key, and with it
    // the whole event history, bit-identical.
    feed_ = &workload;
    feed_copy_ = {};
    feed_order_.resize(workload.size());
    std::iota(feed_order_.begin(), feed_order_.end(), std::uint32_t(0));
    const auto earlier = [&workload](std::uint32_t a, std::uint32_t b) {
        return workload[a].arrival < workload[b].arrival;
    };
    if (!std::is_sorted(feed_order_.begin(), feed_order_.end(), earlier))
        std::stable_sort(feed_order_.begin(), feed_order_.end(), earlier);
    feed_base_ = events_.reserveSequences(workload.size());
    feed_next_ = 0;
    feed_live_ = workload.size();
    if (feeding())
        feedNext();

    try {
        runAll();
    } catch (...) {
        // The caller's trace may not outlive this exception, but pending
        // arrivals still read it: keep them runnable from a copy, as the
        // events of eager submission would have been.
        if (feed_live_ > 0) {
            feed_copy_ = workload;
            feed_ = &feed_copy_;
        }
        throw;
    }
    HDDTHERM_ASSERT(feed_live_ == 0 && inflight_.empty());
    feed_ = nullptr;
    feed_order_ = {};
    feed_next_ = 0;
    return metrics_;
}

void
StorageSystem::feedNext()
{
    const std::uint32_t index = feed_order_[feed_next_++];
    const IoRequest& request = (*feed_)[index];
    events_.scheduleReserved(request.arrival, domain_, feed_base_ + index,
                             snap::kEvtArrival, 0,
                             holdArrival(request, true));
}

void
StorageSystem::gateAll(bool gated)
{
    for (auto& d : disks_)
        d->gate(gated);
}

void
StorageSystem::changeRpmAll(double rpm)
{
    for (auto& d : disks_)
        d->changeRpm(rpm);
}

void
StorageSystem::setPreferredMirror(int index)
{
    HDDTHERM_REQUIRE(index >= -1 && index < config_.disks,
                     "mirror index out of range");
    HDDTHERM_REQUIRE(index != failed_ || index < 0,
                     "cannot prefer a failed mirror");
    preferred_mirror_ = index;
}

void
StorageSystem::failDisk(int index)
{
    HDDTHERM_REQUIRE(index >= 0 && index < config_.disks,
                     "disk index out of range");
    HDDTHERM_REQUIRE(config_.raid == RaidLevel::Raid1 ||
                         config_.raid == RaidLevel::Raid5,
                     "failure injection needs a redundant RAID level");
    HDDTHERM_REQUIRE(failed_ < 0, "only a single failure is tolerated");
    HDDTHERM_REQUIRE(disks_[std::size_t(index)]->idle(),
                     "inject failures while the member is idle");
    failed_ = index;
    if (preferred_mirror_ == failed_)
        preferred_mirror_ = -1;
}

int
StorageSystem::pickMirror() const
{
    if (preferred_mirror_ >= 0 && preferred_mirror_ != failed_)
        return preferred_mirror_;
    // Least-loaded surviving mirror; round-robin breaks ties.
    int best = -1;
    std::size_t best_depth = 0;
    for (int i = 0; i < config_.disks; ++i) {
        const int candidate = (mirror_rr_ + i) % config_.disks;
        if (candidate == failed_)
            continue;
        const std::size_t depth =
            disks_[std::size_t(candidate)]->queueDepth() +
            (disks_[std::size_t(candidate)]->idle() ? 0 : 1);
        if (best < 0 || depth < best_depth) {
            best = candidate;
            best_depth = depth;
        }
    }
    mirror_rr_ = (mirror_rr_ + 1) % config_.disks;
    HDDTHERM_ASSERT(best >= 0);
    return best;
}

std::uint32_t
StorageSystem::acquireSlot(const IoRequest& logical, bool reported)
{
    std::uint32_t slot;
    if (free_slots_.empty()) {
        slot = std::uint32_t(slots_.size());
        slots_.emplace_back();
    } else {
        slot = free_slots_.back();
        free_slots_.pop_back();
    }
    Outstanding& out = slots_[slot];
    out.logical = logical;
    out.remaining = 0;
    out.reported = reported;
    out.phase2.clear();
    inflight_.insert(logical.id, slot);
    return slot;
}

void
StorageSystem::issueSub(std::uint32_t slot, int disk_index,
                        const IoRequest& sub)
{
    IoRequest out = sub;
    out.id = next_sub_id_++;
    out.device = disk_index;
    out.arrival = events_.now();
    sub_to_parent_.insert(out.id, slot);
    disks_[std::size_t(disk_index)]->submit(out);
}

void
StorageSystem::dispatch(const IoRequest& request)
{
    HDDTHERM_REQUIRE(!inflight_.find(request.id),
                     "duplicate in-flight logical request id");

    // Array-controller write-back cache: report the write now; the media
    // traffic still flows below.
    const bool reported = config_.immediateWriteReport && request.isWrite();
    if (reported) {
        IoCompletion done;
        done.id = request.id;
        done.arrival = request.arrival;
        done.finish = events_.now() +
                      config_.writeReportLatencyMs * 1e-3;
        metrics_.record(done);
        if (callback_)
            callback_(done);
    }

    // Sub-requests never complete synchronously, so this reference
    // outlives every issueSub() below.
    const std::uint32_t slot = acquireSlot(request, reported);
    Outstanding& out = slots_[slot];

    switch (config_.raid) {
      case RaidLevel::None: {
        out.remaining = 1;
        issueSub(slot, request.device, request);
        return;
      }

      case RaidLevel::Raid1: {
        if (request.isWrite()) {
            // Writes propagate to every surviving mirror.
            out.remaining = config_.disks - (failed_ >= 0 ? 1 : 0);
            for (int d = 0; d < config_.disks; ++d) {
                if (d != failed_)
                    issueSub(slot, d, request);
            }
        } else {
            out.remaining = 1;
            issueSub(slot, pickMirror(), request);
        }
        return;
      }

      case RaidLevel::Raid0: {
        stripeRaid0(request.lba, request.sectors, config_.disks,
                    config_.stripeSectors, targets_);
        out.remaining = int(targets_.size());
        for (const auto& t : targets_) {
            IoRequest sub = request;
            sub.lba = t.lba;
            sub.sectors = t.sectors;
            issueSub(slot, t.disk, sub);
        }
        return;
      }

      case RaidLevel::Raid5: {
        stripeRaid5Data(request.lba, request.sectors, config_.disks,
                        config_.stripeSectors, targets_);

        // Phase 1 goes out now; phase 2 (the writes of read-modify-write)
        // waits in the record until phase 1 completes.
        phase1_.clear();
        auto add = [&](std::vector<IoRequest>& bucket, int disk_index,
                       std::int64_t lba, int sectors, IoType type) {
            IoRequest sub = request;
            sub.device = disk_index;
            sub.lba = lba;
            sub.sectors = sectors;
            sub.type = type;
            bucket.push_back(sub);
        };

        if (!request.isWrite()) {
            for (const auto& t : targets_) {
                if (t.disk != failed_) {
                    add(phase1_, t.disk, t.lba, t.sectors, IoType::Read);
                    continue;
                }
                // Degraded read: reconstruct from the same sector range
                // of every surviving unit in the row (data + parity).
                for (int d = 0; d < config_.disks; ++d) {
                    if (d != failed_)
                        add(phase1_, d, t.lba, t.sectors, IoType::Read);
                }
            }
        } else {
            // Writes, organized per touched row: classic
            // read-modify-write when the row is healthy; parity-less
            // writes when the row's parity member is the failed one;
            // reconstruct-write (read the surviving complement, rewrite
            // parity) when a data member is.  Each row's targets are one
            // contiguous run of targets_, rows ascending.
            for (auto first = targets_.begin(); first != targets_.end();) {
                const std::int64_t row =
                    raid5RowOfTarget(*first, config_.stripeSectors);
                const auto last = std::find_if(
                    first, targets_.end(), [&](const StripeTarget& t) {
                        return raid5RowOfTarget(t, config_.stripeSectors) !=
                               row;
                    });
                const std::span<const StripeTarget> targets(first, last);
                first = last;

                const int parity_disk = raid5ParityDisk(row, config_.disks);
                const auto parity = raid5ParityTarget(
                    row, config_.disks, config_.stripeSectors);
                const bool data_member_lost =
                    failed_ >= 0 && failed_ != parity_disk &&
                    std::any_of(targets.begin(), targets.end(),
                                [this](const StripeTarget& t) {
                                    return t.disk == failed_;
                                });

                if (parity_disk == failed_) {
                    // No parity to maintain: plain data writes.
                    for (const auto& t : targets)
                        add(out.phase2, t.disk, t.lba, t.sectors,
                            IoType::Write);
                } else if (data_member_lost) {
                    // Reconstruct-write: read every surviving data unit
                    // of the row not (fully) supplied by this write, then
                    // write the surviving targets and the recomputed
                    // parity unit.
                    for (int d = 0; d < config_.disks; ++d) {
                        if (d == failed_ || d == parity_disk)
                            continue;
                        const bool fully_written = std::any_of(
                            targets.begin(), targets.end(),
                            [d, this](const StripeTarget& t) {
                                return t.disk == d &&
                                       t.sectors == config_.stripeSectors;
                            });
                        if (!fully_written) {
                            add(phase1_, d, row * config_.stripeSectors,
                                config_.stripeSectors, IoType::Read);
                        }
                    }
                    for (const auto& t : targets) {
                        if (t.disk != failed_)
                            add(out.phase2, t.disk, t.lba, t.sectors,
                                IoType::Write);
                    }
                    add(out.phase2, parity.disk, parity.lba, parity.sectors,
                        IoType::Write);
                } else {
                    for (const auto& t : targets) {
                        add(phase1_, t.disk, t.lba, t.sectors, IoType::Read);
                        add(out.phase2, t.disk, t.lba, t.sectors,
                            IoType::Write);
                    }
                    add(phase1_, parity.disk, parity.lba, parity.sectors,
                        IoType::Read);
                    add(out.phase2, parity.disk, parity.lba, parity.sectors,
                        IoType::Write);
                }
            }
        }

        if (phase1_.empty()) {
            // Parity-less rows only: the writes are the single phase.
            out.remaining = int(out.phase2.size());
            for (const auto& w : out.phase2)
                issueSub(slot, w.device, w);
            out.phase2.clear();
            return;
        }
        out.remaining = int(phase1_.size());
        for (const auto& sub : phase1_)
            issueSub(slot, sub.device, sub);
        return;
      }
    }
    HDDTHERM_ASSERT(false && "unknown RAID level");
}

void
StorageSystem::onSubComplete(const IoRequest& sub, engine::SimTime finish)
{
    const std::uint32_t* parent = sub_to_parent_.find(sub.id);
    HDDTHERM_ASSERT(parent != nullptr);
    const std::uint32_t slot = *parent;
    sub_to_parent_.erase(sub.id);

    Outstanding& out = slots_[slot];
    HDDTHERM_ASSERT(out.remaining > 0);
    if (--out.remaining > 0)
        return;

    if (!out.phase2.empty()) {
        out.remaining = int(out.phase2.size());
        for (const auto& w : out.phase2)
            issueSub(slot, w.device, w);
        out.phase2.clear();
        return;
    }
    completeLogical(out, finish);
    inflight_.erase(slots_[slot].logical.id);
    free_slots_.push_back(slot);
}

void
StorageSystem::completeLogical(const Outstanding& out, engine::SimTime finish)
{
    if (out.reported)
        return; // already counted at write-report time
    IoCompletion done;
    done.id = out.logical.id;
    done.arrival = out.logical.arrival;
    done.finish = finish;
    metrics_.record(done);
    HDDTHERM_OBS_COUNT("sim.system.completed");
    if (callback_)
        callback_(done);
}

namespace {

void
blobWriteRequest(snap::BlobWriter& blob, const IoRequest& req)
{
    std::uint64_t words[5];
    packIoRequest(req, words);
    blob.words(words, 5);
}

IoRequest
blobReadRequest(snap::BlobReader& blob)
{
    std::uint64_t words[5];
    for (auto& word : words)
        word = blob.u64();
    return unpackIoRequest(words);
}

} // namespace

void
StorageSystem::saveState(snap::StateWriter& w) const
{
    HDDTHERM_REQUIRE(!feeding(),
                     "cannot save storage state: run() still holds "
                     "arrivals it has not scheduled, which a checkpoint "
                     "would silently drop");
    {
        snap::ScopedPrefix scope(w, "metrics");
        metrics_.saveState(w);
    }
    w.u64("next_sub_id", next_sub_id_);
    w.i64("preferred_mirror", preferred_mirror_);
    w.i64("mirror_rr", mirror_rr_);
    w.i64("failed", failed_);

    // The flat tables are serialized in sorted-id order so identical
    // states always produce identical checkpoint bytes.
    std::vector<std::pair<std::uint64_t, std::uint32_t>> parents;
    parents.reserve(inflight_.size());
    inflight_.forEach([&](std::uint64_t id, std::uint32_t slot) {
        parents.emplace_back(id, slot);
    });
    std::sort(parents.begin(), parents.end());
    snap::BlobWriter inflight_blob;
    inflight_blob.reserve(inflight_.size() * 57);
    for (const auto& [id, slot] : parents) {
        const Outstanding& out = slots_[slot];
        blobWriteRequest(inflight_blob, out.logical);
        inflight_blob.i64(out.remaining);
        inflight_blob.u8(out.reported ? 1 : 0);
        inflight_blob.u64(out.phase2.size());
        for (const auto& sub : out.phase2)
            blobWriteRequest(inflight_blob, sub);
    }
    w.u64("inflight", inflight_.size());
    w.bytes("inflight_blob", inflight_blob.take());

    std::vector<std::pair<std::uint64_t, std::uint64_t>> subs;
    subs.reserve(sub_to_parent_.size());
    sub_to_parent_.forEach([&](std::uint64_t sub_id, std::uint32_t slot) {
        subs.emplace_back(sub_id, slots_[slot].logical.id);
    });
    std::sort(subs.begin(), subs.end());
    snap::BlobWriter sub_blob;
    for (const auto& [sub_id, parent_id] : subs) {
        sub_blob.u64(sub_id);
        sub_blob.u64(parent_id);
    }
    w.u64("subs", subs.size());
    w.bytes("sub_blob", sub_blob.take());

    // The arrival table slot by slot: the kernel's arrival records carry
    // these indices.  A restored run hands out the same slots afterwards,
    // because a free slot is always the lowest one not pending.
    snap::BlobWriter arrival_blob;
    for (const Arrival& arrival : arrivals_) {
        arrival_blob.u8(arrival.pending ? 1 : 0);
        if (arrival.pending)
            blobWriteRequest(arrival_blob, arrival.request);
    }
    w.u64("arrival_slots", arrivals_.size());
    w.bytes("arrival_blob", arrival_blob.take());

    for (std::size_t i = 0; i < disks_.size(); ++i) {
        snap::ScopedPrefix scope(w, "disk" + std::to_string(i));
        disks_[i]->saveState(w);
    }
}

void
StorageSystem::loadState(snap::StateReader& r)
{
    {
        snap::ScopedPrefix scope(r, "metrics");
        metrics_.loadState(r);
    }
    next_sub_id_ = r.u64("next_sub_id");
    preferred_mirror_ = int(r.i64("preferred_mirror"));
    mirror_rr_ = int(r.i64("mirror_rr"));
    failed_ = int(r.i64("failed"));
    HDDTHERM_REQUIRE(failed_ >= -1 && failed_ < config_.disks,
                     "checkpoint section '" + r.section() +
                         "': failed-disk index out of range");

    const auto inflight_count = r.u64("inflight");
    const auto inflight_raw = r.bytes("inflight_blob");
    snap::BlobReader inflight_blob(
        "section '" + r.section() + "' in-flight table", inflight_raw);
    inflight_.clear();
    slots_.clear();
    free_slots_.clear();
    for (std::uint64_t i = 0; i < inflight_count; ++i) {
        const IoRequest logical = blobReadRequest(inflight_blob);
        HDDTHERM_REQUIRE(!inflight_.find(logical.id),
                         "checkpoint section '" + r.section() +
                             "': duplicate in-flight request id");
        Outstanding& out = slots_[acquireSlot(logical, false)];
        out.remaining = int(inflight_blob.i64());
        out.reported = inflight_blob.u8() != 0;
        const auto phase2 = inflight_blob.u64();
        for (std::uint64_t p = 0; p < phase2; ++p)
            out.phase2.push_back(blobReadRequest(inflight_blob));
    }
    HDDTHERM_REQUIRE(inflight_blob.atEnd(),
                     "checkpoint section '" + r.section() +
                         "' carries trailing in-flight bytes");

    const auto sub_count = r.u64("subs");
    const auto sub_raw = r.bytes("sub_blob");
    snap::BlobReader sub_blob(
        "section '" + r.section() + "' sub-request table", sub_raw);
    sub_to_parent_.clear();
    for (std::uint64_t i = 0; i < sub_count; ++i) {
        const auto sub_id = sub_blob.u64();
        const auto parent_id = sub_blob.u64();
        const std::uint32_t* slot = inflight_.find(parent_id);
        HDDTHERM_REQUIRE(slot != nullptr && !sub_to_parent_.find(sub_id),
                         "checkpoint section '" + r.section() +
                             "': sub-request table does not match the "
                             "in-flight table");
        sub_to_parent_.insert(sub_id, *slot);
    }
    HDDTHERM_REQUIRE(sub_blob.atEnd(),
                     "checkpoint section '" + r.section() +
                         "' carries trailing sub-request bytes");

    const auto arrival_slots = r.u64("arrival_slots");
    const auto arrival_raw = r.bytes("arrival_blob");
    snap::BlobReader arrival_blob(
        "section '" + r.section() + "' arrival table", arrival_raw);
    arrivals_.clear();
    free_arrivals_.clear();
    for (std::uint64_t slot = 0; slot < arrival_slots; ++slot) {
        Arrival& arrival = arrivals_.emplace_back();
        arrival.pending = arrival_blob.u8() != 0;
        if (arrival.pending)
            arrival.request = blobReadRequest(arrival_blob);
        else
            free_arrivals_.push_back(std::uint32_t(slot));
    }
    HDDTHERM_REQUIRE(arrival_blob.atEnd(),
                     "checkpoint section '" + r.section() +
                         "' carries trailing arrival bytes");
    std::make_heap(free_arrivals_.begin(), free_arrivals_.end(),
                   std::greater<>());

    for (std::size_t i = 0; i < disks_.size(); ++i) {
        snap::ScopedPrefix scope(r, "disk" + std::to_string(i));
        disks_[i]->loadState(r);
    }
}

} // namespace hddtherm::sim
