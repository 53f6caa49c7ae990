/**
 * @file
 * The four-component drive thermal model (paper §3.3).
 *
 * Following Clauss/Eibeck, the drive is lumped into four components plus
 * the externally cooled ambient boundary:
 *   - the internal drive air (heated directly by viscous dissipation),
 *   - the spindle-motor assembly: motor hub and platters,
 *   - the base and cover castings,
 *   - the voice-coil motor and disk arms.
 * Convection couples the solids to the internal air with film coefficients
 * from the rotating-disk correlations; conduction couples the spindle
 * bearing and the actuator pivot to the base; the base convects to the
 * outside air, which a cooling system holds at a constant temperature.
 *
 * The model is calibrated once, lazily, against the paper's published
 * anchors (see calibration.h); the calibrated quantities are the external
 * film coefficient and the per-size SPM motor losses.
 */
#ifndef HDDTHERM_THERMAL_DRIVE_THERMAL_H
#define HDDTHERM_THERMAL_DRIVE_THERMAL_H

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "hdd/geometry.h"
#include "thermal/calibration.h"
#include "thermal/network.h"

namespace hddtherm::snap {
class StateWriter;
class StateReader;
} // namespace hddtherm::snap

namespace hddtherm::thermal {

/// Static + operating configuration for the drive thermal model.
struct DriveThermalConfig
{
    hdd::PlatterGeometry geometry;   ///< Platter diameter/count.
    hdd::FormFactor enclosure = hdd::FormFactor::ff35();
    double rpm = 15000.0;            ///< Spindle speed.
    double ambientC = kBaselineAmbientC; ///< External (wet-bulb) ambient.
    double vcmDuty = 1.0;            ///< Fraction of time the VCM is on.
    double coolingScale = 1.0;       ///< Multiplier on external conductance.

    /// Optional overrides of the calibrated powers (used by tests and by
    /// the calibration procedure itself).
    std::optional<double> vcmPowerOverrideW;
    std::optional<double> spmPowerOverrideW;

    /// Optional override of the calibrated external film coefficient,
    /// W/(m^2 K); useful for cooling-technology ablations.
    std::optional<double> externalFilmOverride;
};

/// The drive thermal model: a configured 5-node ThermalNetwork.
class DriveThermalModel
{
  public:
    /// Build the network; all free nodes start at the ambient temperature.
    explicit DriveThermalModel(const DriveThermalConfig& config);

    /// @name Operating-state mutators.
    /// setRpm rebuilds every RPM-dependent conductance and heat input;
    /// setVcmDuty touches only the VCM heat input and setAmbient only the
    /// ambient boundary temperature, so the per-tick control updates keep
    /// the network's cached step factorization.
    /// @{
    void setRpm(double rpm);
    void setVcmDuty(double duty);
    void setAmbient(double ambient_c);
    /// @}

    /// @name Fault-injection overrides (hddtherm_fault hook points).
    /// All default to the no-fault identity, under which the model is
    /// bit-identical to one without the overrides.
    /// @{
    /**
     * Scale the external (base-to-ambient) convective conductance by
     * @p scale (> 0): a degraded fan moves less air over the case.
     * Composes multiplicatively with config().coolingScale.
     */
    void setCoolingFaultScale(double scale);
    double coolingFaultScale() const { return cooling_fault_scale_; }

    /// Offset the effective external ambient by @p delta_c without
    /// touching the nominal config().ambientC (ambient spike/step faults).
    void setAmbientOffsetC(double delta_c);
    double ambientOffsetC() const { return ambient_offset_c_; }

    /// Ambient the network actually sees: nominal plus fault offset.
    double effectiveAmbientC() const
    {
        return config_.ambientC + ambient_offset_c_;
    }

    /**
     * Power the drive on/off (bay kill/restore).  Off, every heat source
     * reads zero and the enclosure cools toward ambient through its
     * calibrated paths (the film coefficients keep their rotating values —
     * a conservative simplification documented in docs/faults.md).
     */
    void setPowered(bool on);
    bool powered() const { return powered_; }
    /// @}

    /// Current configuration.
    const DriveThermalConfig& config() const { return config_; }

    /// @name Heat sources at the current operating point, in watts.
    /// @{
    double viscousPowerW() const;
    double vcmPowerW() const;   ///< Duty-scaled VCM power.
    double spmPowerW() const;
    double totalPowerW() const;
    /// @}

    /// Current (transient) internal air temperature.
    double airTempC() const;

    /// Steady-state internal air temperature at the current operating
    /// point; does not disturb the transient state.
    double steadyAirTempC() const;

    /// Steady-state temperatures of [air, spindle, base, vcm].
    std::vector<double> steadyTemps() const;

    /// One steady-state heat flow along a network path, in watts.
    struct HeatFlow
    {
        std::string path;   ///< e.g. "spindle->air".
        double watts = 0.0; ///< Positive along the named direction.
    };

    /**
     * Steady-state heat flows along every edge of the drive network — the
     * "where does the heat go" breakdown.  Their signed sum into the
     * ambient equals totalPowerW() (energy conservation, tested).
     */
    std::vector<HeatFlow> steadyHeatFlows() const;

    /// Reset every free node to @p temp_c (cold start).
    void reset(double temp_c);

    /// Jump the transient state to the steady state.
    void settle();

    /**
     * Place the drive on its current operating point's warm-up trajectory
     * at the moment the air temperature equals @p air_temp_c: the steady
     * profile shifted uniformly (the air node couples only to the solids,
     * so the shifted profile keeps the air in quasi-equilibrium).  This is
     * the "just reached the envelope" state the throttling experiments
     * start from.
     */
    void settleWithAirAt(double air_temp_c);

    /**
     * Integrate the transient for @p duration seconds with step @p dt
     * (default: the paper's 600 steps/minute), invoking @p observer after
     * each step with (elapsed seconds, air temperature °C).
     */
    void advance(double duration, double dt = kPaperTimestepSec,
                 const std::function<void(double, double)>& observer =
                     nullptr);

    /**
     * Kernel-facing stepping: integrate the transient from the model's
     * clock (the time of the previous advanceTo) up to absolute simulated
     * time @p t, with step at most @p max_dt, and move the clock to @p t.
     * The simulation kernel's fixed-step thermal domain consumes this
     * instead of owning an integration loop: each control tick advances
     * the model to the tick's timestamp.  @p t must not precede the
     * clock; equal time is a no-op.
     */
    void advanceTo(double t, double max_dt = kPaperTimestepSec);

    /// Absolute time the transient state corresponds to (advanceTo's).
    double clockSec() const { return clock_sec_; }

    /// Re-anchor the clock (e.g. reusing a model across runs).
    void resetClock(double t = 0.0) { clock_sec_ = t; }

    /// Underlying network (e.g. to inspect per-node temperatures).
    const ThermalNetwork& network() const { return net_; }

    /// @name Node handles within network().
    /// @{
    ThermalNetwork::NodeId airNode() const { return air_; }
    ThermalNetwork::NodeId spindleNode() const { return spindle_; }
    ThermalNetwork::NodeId baseNode() const { return base_; }
    ThermalNetwork::NodeId vcmNode() const { return vcm_; }
    ThermalNetwork::NodeId ambientNode() const { return ambient_; }
    /// @}

    /**
     * Calibrated external film coefficient, W/(m^2 K), shared by all
     * configurations (exposed for diagnostics/tests).
     */
    static double calibratedExternalFilmCoefficient();

    /// @name Checkpoint/restore
    /// @{

    /// Serialize the operating point, fault overrides, clock, and the
    /// transient node state.
    void saveState(snap::StateWriter& w) const;

    /// Restore state written by saveState (rebuilds the operating point,
    /// then overwrites the transient node state bitwise).
    void loadState(snap::StateReader& r);

    /// @}

  private:
    void rebuildOperatingPoint();

    DriveThermalConfig config_;
    double clock_sec_ = 0.0;
    double cooling_fault_scale_ = 1.0;
    double ambient_offset_c_ = 0.0;
    bool powered_ = true;
    ThermalNetwork net_;
    ThermalNetwork::NodeId air_ = -1;
    ThermalNetwork::NodeId spindle_ = -1;
    ThermalNetwork::NodeId base_ = -1;
    ThermalNetwork::NodeId vcm_ = -1;
    ThermalNetwork::NodeId ambient_ = -1;
};

/// Steady-state internal air temperature for a configuration (convenience).
double steadyAirTempC(const DriveThermalConfig& config);

} // namespace hddtherm::thermal

#endif // HDDTHERM_THERMAL_DRIVE_THERMAL_H
