/**
 * @file
 * Mechanical positioning model: seeks, rotation, media transfer.
 *
 * Tracks the head-assembly cylinder and the platter's angular phase.  The
 * angular phase is continuous across RPM changes, so rotational latency is
 * computed from the true sector position at the moment the seek settles —
 * the effect that makes higher RPM shrink both latency and transfer time.
 */
#ifndef HDDTHERM_SIM_MECHANICS_H
#define HDDTHERM_SIM_MECHANICS_H

#include "engine/trace.h"
#include "hdd/seek.h"
#include "sim/address_map.h"

namespace hddtherm::snap {
class StateWriter;
class StateReader;
} // namespace hddtherm::snap

namespace hddtherm::sim {

/// Decomposition of one mechanical service.
struct ServiceBreakdown
{
    double seekSec = 0.0;      ///< Arm move + settle.
    double rotationSec = 0.0;  ///< Rotational latency.
    double transferSec = 0.0;  ///< Media transfer (incl. head switches).
    int trackSwitches = 0;     ///< Track/surface boundaries crossed.

    /// Total mechanical time.
    double totalSec() const
    {
        return seekSec + rotationSec + transferSec;
    }
};

/// Head/spindle mechanics for one drive.
class DiskMechanics
{
  public:
    /**
     * @param map address map (borrowed; must outlive the mechanics).
     * @param seek seek curve for this drive.
     * @param rpm initial spindle speed.
     * @param head_switch_sec time to switch active head within a cylinder.
     */
    DiskMechanics(const DiskAddressMap& map, const hdd::SeekModel& seek,
                  double rpm, double head_switch_sec = 0.3e-3);

    /// Current spindle speed.
    double rpm() const { return rpm_; }

    /**
     * Change the spindle speed at time @p now, preserving angular phase.
     */
    void setRpm(double rpm, engine::SimTime now);

    /// Current head cylinder.
    int headCylinder() const { return head_cylinder_; }

    /// Force the head position (e.g. initial placement).
    void setHeadCylinder(int cylinder);

    /// Angular phase in [0, 1) revolutions at time @p t (>= last change).
    double phaseAt(engine::SimTime t) const;

    /// Time for one revolution at the current speed.
    double revolutionSec() const { return 60.0 / rpm_; }

    /**
     * Compute the mechanical service of a request starting at @p addr for
     * @p sectors sectors with the operation beginning at @p start.  Moves
     * the head to the final cylinder.
     */
    ServiceBreakdown service(const PhysicalAddress& addr, int sectors,
                             engine::SimTime start);

    /// Seek distance (cylinders) the last service() call performed.
    int lastSeekDistance() const { return last_seek_distance_; }

    /// Serialize head/spindle state (checkpoint support).
    void saveState(snap::StateWriter& w) const;

    /// Restore state written by saveState.
    void loadState(snap::StateReader& r);

  private:
    const DiskAddressMap& map_;
    const hdd::SeekModel& seek_;
    double rpm_;
    double head_switch_sec_;
    int head_cylinder_ = 0;
    // Angular reference: phase at ref_time_ was ref_phase_.
    engine::SimTime ref_time_ = 0.0;
    double ref_phase_ = 0.0;
    int last_seek_distance_ = 0;
};

} // namespace hddtherm::sim

#endif // HDDTHERM_SIM_MECHANICS_H
