#include "sim/disk.h"

#include <cmath>

#include "snap/state.h"
#include "util/error.h"
#include "util/units.h"

namespace hddtherm::sim {

hdd::ZoneModel
makeLayout(const DiskConfig& config)
{
    return hdd::ZoneModel(config.geometry, config.tech, config.zones);
}

SimDisk::SimDisk(engine::SimKernel& events, const DiskConfig& config, int id)
    : events_(events),
      domain_(events.registerDomain("storage")),
      config_(config),
      id_(id),
      map_(makeLayout(config)),
      seek_model_(config.seekProfile
                      ? *config.seekProfile
                      : hdd::SeekProfile::forDiameter(
                            config.geometry.diameterInches),
                  map_.layout().cylinders()),
      mechanics_(map_, seek_model_, config.rpm,
                 util::msToSec(config.headSwitchMs)),
      cache_(config.cacheBytes, config.cacheSegments),
      sched_(config.scheduler)
{
    HDDTHERM_REQUIRE(config_.rpm > 0.0, "rpm must be positive");
    HDDTHERM_REQUIRE(config_.controllerOverheadMs >= 0.0,
                     "negative controller overhead");
    HDDTHERM_REQUIRE(config_.busMBps > 0.0, "bus rate must be positive");
    HDDTHERM_REQUIRE(config_.rpmChangeSecPerKrpm >= 0.0,
                     "negative rpm transition rate");
    HDDTHERM_REQUIRE(id_ >= 0, "disk id must not be negative");
    // The disk id addresses this disk's events in a kernel it shares.
    const auto unit = std::uint32_t(id_);
    events_.registerHandler(
        snap::kEvtDiskFinish, unit, [this](std::uint64_t) { finish(); },
        [this](std::uint64_t payload) { return payload == 0 && busy_; });
    events_.registerHandler(
        snap::kEvtDiskRetry, unit,
        [this](std::uint64_t) {
            retry_scheduled_ = false;
            tryDispatch();
        },
        [this](std::uint64_t payload) {
            return payload == 0 && retry_scheduled_;
        });
}

void
SimDisk::setCompletionHandler(CompletionHandler handler)
{
    handler_ = std::move(handler);
}

void
SimDisk::submit(const IoRequest& request)
{
    HDDTHERM_REQUIRE(request.sectors >= 1, "empty request");
    HDDTHERM_REQUIRE(request.lba >= 0 &&
                         request.lba + request.sectors <=
                             map_.totalSectors(),
                     "request beyond end of disk");
    noteDepthChange(events_.now(), +1);
    sched_.push(request, map_.toPhysical(request.lba).cylinder);
    tryDispatch();
}

void
SimDisk::noteDepthChange(engine::SimTime now, int delta)
{
    depth_integral_ += double(depth_) * (now - depth_changed_at_);
    depth_changed_at_ = now;
    depth_ += delta;
    HDDTHERM_ASSERT(depth_ >= 0);
}

double
SimDisk::avgQueueDepth(engine::SimTime now) const
{
    if (now <= 0.0)
        return 0.0;
    const double integral =
        depth_integral_ + double(depth_) * (now - depth_changed_at_);
    return integral / now;
}

void
SimDisk::gate(bool gated)
{
    gated_ = gated;
    if (!gated_)
        tryDispatch();
}

void
SimDisk::changeRpm(double new_rpm)
{
    HDDTHERM_REQUIRE(new_rpm > 0.0, "rpm must be positive");
    if (busy_) {
        pending_rpm_ = new_rpm; // applied when the in-flight request ends
        return;
    }
    const engine::SimTime now = events_.now();
    const double duration = std::fabs(new_rpm - mechanics_.rpm()) *
                            config_.rpmChangeSecPerKrpm / 1000.0;
    mechanics_.setRpm(new_rpm, now);
    available_at_ = std::max(available_at_, now + duration);
    tryDispatch();
}

void
SimDisk::tryDispatch()
{
    if (busy_ || gated_ || sched_.empty())
        return;

    const engine::SimTime now = events_.now();
    if (now < available_at_) {
        // Spindle transition in progress: retry when it completes.
        if (!retry_scheduled_) {
            retry_scheduled_ = true;
            events_.schedule(available_at_, domain_, snap::kEvtDiskRetry,
                             std::uint32_t(id_), 0);
        }
        return;
    }

    const Scheduler::Entry entry = sched_.pop(mechanics_.headCylinder());
    const IoRequest& req = entry.request;
    if (config_.recordIdleGaps && now > idle_since_)
        idle_gaps_.push_back(now - idle_since_);
    busy_ = true;

    const double overhead = util::msToSec(config_.controllerOverheadMs);
    double service = overhead;

    const bool cache_hit =
        !req.isWrite() && cache_.read(req.lba, req.sectors);
    if (cache_hit) {
        service += double(req.sectors) * util::kSectorBytes /
                   (config_.busMBps * 1e6);
    } else {
        const PhysicalAddress phys = map_.toPhysical(req.lba);
        const ServiceBreakdown bd =
            mechanics_.service(phys, req.sectors, now + overhead);
        service += bd.totalSec();
        activity_.seekSec += bd.seekSec;
        activity_.rotationSec += bd.rotationSec;
        activity_.transferSec += bd.transferSec;
        ++activity_.mediaAccesses;
        if (mechanics_.lastSeekDistance() > 0)
            ++activity_.seeks;

        // Install the fetched extent, optionally reading ahead to the end
        // of the track (write-through extents are cached as-is).
        std::int64_t extent = req.sectors;
        if (!req.isWrite() && config_.readAheadToTrackEnd) {
            const std::int64_t to_track_end =
                map_.sectorsPerTrack(phys.cylinder) - phys.sector;
            extent = std::max<std::int64_t>(extent, to_track_end);
        }
        cache_.install(req.lba, extent);
    }

    activity_.busySec += service;
    in_service_ = req;
    finish_time_ = now + service;
    events_.schedule(finish_time_, domain_, snap::kEvtDiskFinish,
                     std::uint32_t(id_), 0);
}

void
SimDisk::finish()
{
    // Copied out: the handler may start the next service, which
    // overwrites in_service_.
    const IoRequest request = in_service_;
    const engine::SimTime finish_time = finish_time_;
    busy_ = false;
    idle_since_ = finish_time;
    noteDepthChange(finish_time, -1);
    ++activity_.completions;
    if (pending_rpm_ > 0.0) {
        const double target = pending_rpm_;
        pending_rpm_ = 0.0;
        changeRpm(target);
    }
    if (handler_)
        handler_(request, finish_time);
    tryDispatch();
}

void
SimDisk::saveState(snap::StateWriter& w) const
{
    w.boolean("busy", busy_);
    w.boolean("gated", gated_);
    w.f64("idle_since", idle_since_);
    w.i64("depth", depth_);
    w.f64("depth_integral", depth_integral_);
    w.f64("depth_changed_at", depth_changed_at_);
    w.f64("available_at", available_at_);
    w.f64("pending_rpm", pending_rpm_);
    w.boolean("retry_scheduled", retry_scheduled_);
    if (busy_) {
        // The pending finish event's record carries neither.
        std::vector<std::uint64_t> in_service(5);
        packIoRequest(in_service_, in_service.data());
        w.u64vec("in_service", in_service);
        w.f64("finish_time", finish_time_);
    }
    w.f64vec("idle_gaps", idle_gaps_);

    w.f64("act.busy_sec", activity_.busySec);
    w.f64("act.seek_sec", activity_.seekSec);
    w.f64("act.rotation_sec", activity_.rotationSec);
    w.f64("act.transfer_sec", activity_.transferSec);
    w.u64("act.completions", activity_.completions);
    w.u64("act.media_accesses", activity_.mediaAccesses);
    w.u64("act.seeks", activity_.seeks);

    {
        snap::ScopedPrefix scope(w, "mech");
        mechanics_.saveState(w);
    }
    {
        snap::ScopedPrefix scope(w, "cache");
        cache_.saveState(w);
    }
    {
        snap::ScopedPrefix scope(w, "sched");
        sched_.saveState(w);
    }
}

void
SimDisk::loadState(snap::StateReader& r)
{
    busy_ = r.boolean("busy");
    gated_ = r.boolean("gated");
    idle_since_ = r.f64("idle_since");
    depth_ = int(r.i64("depth"));
    depth_integral_ = r.f64("depth_integral");
    depth_changed_at_ = r.f64("depth_changed_at");
    available_at_ = r.f64("available_at");
    pending_rpm_ = r.f64("pending_rpm");
    retry_scheduled_ = r.boolean("retry_scheduled");
    if (busy_) {
        const auto in_service = r.u64vec("in_service");
        HDDTHERM_REQUIRE(in_service.size() == 5,
                         "checkpoint section '" + r.section() +
                             "': in-service request is not five words");
        in_service_ = unpackIoRequest(in_service.data());
        finish_time_ = r.f64("finish_time");
    }
    idle_gaps_ = r.f64vec("idle_gaps");

    activity_.busySec = r.f64("act.busy_sec");
    activity_.seekSec = r.f64("act.seek_sec");
    activity_.rotationSec = r.f64("act.rotation_sec");
    activity_.transferSec = r.f64("act.transfer_sec");
    activity_.completions = r.u64("act.completions");
    activity_.mediaAccesses = r.u64("act.media_accesses");
    activity_.seeks = r.u64("act.seeks");

    {
        snap::ScopedPrefix scope(r, "mech");
        mechanics_.loadState(r);
    }
    {
        snap::ScopedPrefix scope(r, "cache");
        cache_.loadState(r);
    }
    {
        snap::ScopedPrefix scope(r, "sched");
        sched_.loadState(r);
    }
}

} // namespace hddtherm::sim
