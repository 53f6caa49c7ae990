#include "sim/mechanics.h"

#include <cmath>
#include "snap/state.h"

#include "util/error.h"

namespace hddtherm::sim {

DiskMechanics::DiskMechanics(const DiskAddressMap& map,
                             const hdd::SeekModel& seek, double rpm,
                             double head_switch_sec)
    : map_(map), seek_(seek), rpm_(rpm), head_switch_sec_(head_switch_sec)
{
    HDDTHERM_REQUIRE(rpm_ > 0.0, "rpm must be positive");
    HDDTHERM_REQUIRE(head_switch_sec_ >= 0.0, "negative head-switch time");
}

void
DiskMechanics::setRpm(double rpm, engine::SimTime now)
{
    HDDTHERM_REQUIRE(rpm > 0.0, "rpm must be positive");
    ref_phase_ = phaseAt(now);
    ref_time_ = now;
    rpm_ = rpm;
}

void
DiskMechanics::setHeadCylinder(int cylinder)
{
    HDDTHERM_REQUIRE(cylinder >= 0 && cylinder < map_.layout().cylinders(),
                     "cylinder out of range");
    head_cylinder_ = cylinder;
}

double
DiskMechanics::phaseAt(engine::SimTime t) const
{
    HDDTHERM_REQUIRE(t >= ref_time_, "phase query before last RPM change");
    const double revs = (t - ref_time_) * rpm_ / 60.0;
    double frac = revs - std::floor(revs) + ref_phase_;
    if (frac >= 1.0)
        frac -= 1.0;
    return frac;
}

ServiceBreakdown
DiskMechanics::service(const PhysicalAddress& addr, int sectors,
                       engine::SimTime start)
{
    HDDTHERM_REQUIRE(sectors >= 1, "empty transfer");
    ServiceBreakdown out;

    // 1. Seek.
    last_seek_distance_ = std::abs(addr.cylinder - head_cylinder_);
    out.seekSec = seek_.seekTimeSec(last_seek_distance_);

    // 2. Rotational latency: wait for the target sector's leading edge.
    const int per_track = map_.sectorsPerTrack(addr.cylinder);
    const double rev = revolutionSec();
    const double settle_time = start + out.seekSec;
    const double phase = phaseAt(settle_time);
    const double target = double(addr.sector) / double(per_track);
    double wait = target - phase;
    if (wait < 0.0)
        wait += 1.0;
    out.rotationSec = wait * rev;

    // 3. Transfer, accounting for track/cylinder boundaries.  Sector
    // counts can shrink when the transfer runs into an inner zone; we walk
    // track by track.  Track skew is assumed to hide switch latencies up
    // to head_switch_sec_.
    int remaining = sectors;
    int cylinder = addr.cylinder;
    int surface = addr.surface;
    int sector = addr.sector;
    const int surfaces = map_.layout().surfaces();
    while (remaining > 0) {
        const int on_track =
            std::min(remaining,
                     map_.sectorsPerTrack(cylinder) - sector);
        HDDTHERM_ASSERT(on_track > 0);
        out.transferSec += double(on_track) /
                           double(map_.sectorsPerTrack(cylinder)) * rev;
        remaining -= on_track;
        if (remaining == 0)
            break;
        // Advance to the next track: next surface, else next cylinder.
        sector = 0;
        ++out.trackSwitches;
        out.transferSec += head_switch_sec_;
        if (++surface == surfaces) {
            surface = 0;
            ++cylinder;
            HDDTHERM_REQUIRE(cylinder < map_.layout().cylinders(),
                             "transfer runs off the end of the disk");
        }
    }
    head_cylinder_ = cylinder;
    return out;
}


void
DiskMechanics::saveState(snap::StateWriter& w) const
{
    w.f64("rpm", rpm_);
    w.i64("head_cylinder", head_cylinder_);
    w.f64("ref_time", ref_time_);
    w.f64("ref_phase", ref_phase_);
    w.i64("last_seek_distance", last_seek_distance_);
}

void
DiskMechanics::loadState(snap::StateReader& r)
{
    rpm_ = r.f64("rpm");
    head_cylinder_ = int(r.i64("head_cylinder"));
    ref_time_ = r.f64("ref_time");
    ref_phase_ = r.f64("ref_phase");
    last_seek_distance_ = int(r.i64("last_seek_distance"));
}

} // namespace hddtherm::sim
