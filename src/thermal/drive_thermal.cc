#include "thermal/drive_thermal.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "snap/state.h"
#include "thermal/correlations.h"
#include "util/error.h"
#include "util/interp.h"
#include "util/roots.h"
#include "util/units.h"

namespace hddtherm::thermal {

namespace {

// ---------------------------------------------------------------------
// Geometry-derived lumped parameters.  Values follow the paper's Cheetah
// 15K.3 teardown description (single 2.6" platter in a 3.5" enclosure)
// scaled physically to other diameters, counts and enclosures.
// ---------------------------------------------------------------------

/// Platter substrate thickness, meters (Al-Mg media, ~0.8 mm).
constexpr double kPlatterThicknessM = 0.8e-3;

/// Motor-hub radius as a fraction of the platter outer radius.
constexpr double kHubRadiusFraction = 0.25;

/// Hub + bearing assembly mass: a base plus a per-platter spacer, kg.
constexpr double kHubBaseMassKg = 0.040;
constexpr double kHubMassPerPlatterKg = 0.012;

/// Actuator (arms + coil) mass, kg: E-block plus per-platter arms.
constexpr double kActuatorBaseMassKg = 0.030;
constexpr double kActuatorMassPerPlatterKg = 0.010;

/// Actuator surface area exposed to the internal air, m^2.
constexpr double kActuatorBaseAreaM2 = 0.0015;
constexpr double kActuatorAreaPerSurfaceM2 = 0.0006;

/// Base/cover casting: effective aluminum thickness over the plate area,
/// with a multiplier accounting for side walls and the mounting frame.
constexpr double kCaseEffectiveThicknessM = 6e-3;
constexpr double kCaseWallFactor = 1.8;

/// Fraction of the enclosure volume occupied by air.
constexpr double kAirVolumeFraction = 0.6;

/// Film-coefficient scale factors relative to the rotating-disk value.
constexpr double kCaseFilmScale = 0.35; ///< Stationary case inner walls.
constexpr double kVcmFilmScale = 0.60;  ///< Arms sweeping between platters.
constexpr double kFilmFloor = 5.0;      ///< Natural-convection floor.

/// Conductances of the solid paths into the base, W/K.
constexpr double kSpindleBearingG = 0.5; ///< Spindle bearing + flange.
constexpr double kActuatorPivotG = 0.6;  ///< Pivot bearing + magnet mount.

/// SPM motor loss assumed for the 2.6" reference drive, W.  The paper's
/// 45.22 °C anchor fixes only the product of total power and external
/// resistance; this pins the split (a 15K SCSI drive idles around 11-14 W,
/// almost all of it spindle).
constexpr double kSpmLossAnchor26 = 10.2;

/// Table 3 year-2002 anchors used to calibrate the smaller-size SPM loss.
constexpr double kAnchorRpm21 = 18692.0;
constexpr double kAnchorTemp21 = 43.56;
constexpr double kAnchorRpm16 = 24533.0;
constexpr double kAnchorTemp16 = 41.64;

double
plateAreaM2(const hdd::FormFactor& ff)
{
    return ff.plateAreaSqIn() * util::kMetersPerInch * util::kMetersPerInch;
}

double
externalAreaM2(const hdd::FormFactor& ff)
{
    return ff.externalAreaSqIn() * util::kMetersPerInch *
           util::kMetersPerInch;
}

double
enclosureVolumeM3(const hdd::FormFactor& ff)
{
    return ff.lengthInches * ff.widthInches * ff.heightInches *
           std::pow(util::kMetersPerInch, 3);
}

/// Internal surface area of the case (inner walls ~ outer walls).
double
caseInnerAreaM2(const hdd::FormFactor& ff)
{
    return externalAreaM2(ff);
}

/// Total platter surface area (both faces, minus the hub shadow), m^2.
double
platterAreaM2(const hdd::PlatterGeometry& g)
{
    const double ro = util::inchesToMeters(g.outerRadiusInches());
    const double rh = kHubRadiusFraction * ro;
    return double(g.platters) * 2.0 * std::numbers::pi * (ro * ro - rh * rh);
}

double
actuatorAreaM2(const hdd::PlatterGeometry& g)
{
    return kActuatorBaseAreaM2 + kActuatorAreaPerSurfaceM2 * g.surfaces();
}

/// Heat capacity of the spindle assembly (hub + platters), J/K.
double
spindleCapacitance(const hdd::PlatterGeometry& g)
{
    const double ro = util::inchesToMeters(g.outerRadiusInches());
    const double rh = kHubRadiusFraction * ro;
    const double platter_volume = std::numbers::pi * (ro * ro - rh * rh) *
                                  kPlatterThicknessM;
    const double platter_mass =
        double(g.platters) * platter_volume * kAluminum.density;
    const double hub_mass =
        kHubBaseMassKg + kHubMassPerPlatterKg * g.platters;
    return (platter_mass + hub_mass) * kAluminum.specificHeat;
}

double
actuatorCapacitance(const hdd::PlatterGeometry& g)
{
    const double mass =
        kActuatorBaseMassKg + kActuatorMassPerPlatterKg * g.platters;
    return mass * kAluminum.specificHeat;
}

double
caseCapacitance(const hdd::FormFactor& ff)
{
    const double mass = plateAreaM2(ff) * kCaseEffectiveThicknessM *
                        kAluminum.density * kCaseWallFactor;
    return mass * kAluminum.specificHeat;
}

double
airCapacitance(const hdd::FormFactor& ff)
{
    const double volume = enclosureVolumeM3(ff) * kAirVolumeFraction;
    return volume * kDriveAir.density * kDriveAir.specificHeat;
}

// ---------------------------------------------------------------------
// Calibration: solve the external film coefficient from the Cheetah
// envelope anchor, then the per-size SPM losses from the Table 3 anchors.
// ---------------------------------------------------------------------

struct Calibration
{
    double externalFilm = 0.0; ///< W/(m^2 K).
    double spmLoss21 = 0.0;    ///< W at 2.1".
    double spmLoss16 = 0.0;    ///< W at 1.6".
};

DriveThermalConfig
referenceConfig(double diameter, double rpm, double spm_loss)
{
    DriveThermalConfig c;
    c.geometry.diameterInches = diameter;
    c.geometry.platters = 1;
    c.rpm = rpm;
    c.spmPowerOverrideW = spm_loss;
    return c;
}

const Calibration&
calibration()
{
    static const Calibration calib = [] {
        Calibration c;
        // 1. External film coefficient: the 1-platter 2.6" drive at the
        //    envelope RPM must sit exactly at the envelope temperature.
        {
            auto cfg = referenceConfig(2.6, kEnvelopeRpm26,
                                       kSpmLossAnchor26);
            c.externalFilm = util::bisect(
                [&cfg](double h) {
                    cfg.externalFilmOverride = h;
                    return steadyAirTempC(cfg) - kThermalEnvelopeC;
                },
                2.0, 400.0, {1e-7, 300});
        }
        // 2. SPM losses for the smaller sizes from the 2002 anchors.
        auto solve_spm = [&c](double diameter, double rpm, double target) {
            auto cfg = referenceConfig(diameter, rpm, 0.0);
            cfg.externalFilmOverride = c.externalFilm;
            return util::bisect(
                [&cfg, target](double s) {
                    cfg.spmPowerOverrideW = s;
                    return steadyAirTempC(cfg) - target;
                },
                0.0, 60.0, {1e-7, 300});
        };
        c.spmLoss21 = solve_spm(2.1, kAnchorRpm21, kAnchorTemp21);
        c.spmLoss16 = solve_spm(1.6, kAnchorRpm16, kAnchorTemp16);
        return c;
    }();
    return calib;
}

} // namespace

double
spmMotorLossW(double diameter_inches)
{
    HDDTHERM_REQUIRE(diameter_inches > 0.0, "diameter must be positive");
    // Built once: every operating-point rebuild (each faulted control
    // tick re-applies the fault overrides) asks for this.
    static const util::PiecewiseLinear anchors = [] {
        const Calibration& c = calibration();
        return util::PiecewiseLinear(
            {{1.6, c.spmLoss16}, {2.1, c.spmLoss21},
             {2.6, kSpmLossAnchor26}},
            util::PiecewiseLinear::Extrapolate::Linear);
    }();
    return std::max(3.0, anchors(diameter_inches));
}

double
DriveThermalModel::calibratedExternalFilmCoefficient()
{
    return calibration().externalFilm;
}

DriveThermalModel::DriveThermalModel(const DriveThermalConfig& config)
    : config_(config)
{
    config_.geometry.validate();
    HDDTHERM_REQUIRE(config_.rpm > 0.0, "rpm must be positive");
    HDDTHERM_REQUIRE(config_.vcmDuty >= 0.0 && config_.vcmDuty <= 1.0,
                     "VCM duty must be within [0, 1]");
    HDDTHERM_REQUIRE(config_.coolingScale > 0.0,
                     "cooling scale must be positive");

    ambient_ = net_.addBoundaryNode("ambient", config_.ambientC);
    air_ = net_.addNode("air", airCapacitance(config_.enclosure),
                        config_.ambientC);
    spindle_ = net_.addNode("spindle", spindleCapacitance(config_.geometry),
                            config_.ambientC);
    base_ = net_.addNode("base", caseCapacitance(config_.enclosure),
                         config_.ambientC);
    vcm_ = net_.addNode("vcm", actuatorCapacitance(config_.geometry),
                        config_.ambientC);

    rebuildOperatingPoint();
}

void
DriveThermalModel::rebuildOperatingPoint()
{
    const auto& g = config_.geometry;
    const double ro = util::inchesToMeters(g.outerRadiusInches());
    const double rpm = config_.rpm;

    // Convective couplings driven by the spinning stack.
    const double h_disk = rotatingDiskFilmCoefficient(rpm, ro);
    const double h_case =
        stirredSurfaceFilmCoefficient(rpm, ro, kCaseFilmScale, kFilmFloor);
    const double h_vcm =
        stirredSurfaceFilmCoefficient(rpm, ro, kVcmFilmScale, kFilmFloor);

    net_.setConductance(spindle_, air_, h_disk * platterAreaM2(g));
    net_.setConductance(air_, base_,
                        h_case * caseInnerAreaM2(config_.enclosure));
    net_.setConductance(vcm_, air_, h_vcm * actuatorAreaM2(g));

    // Solid conduction paths into the base.
    net_.setConductance(spindle_, base_, kSpindleBearingG);
    net_.setConductance(vcm_, base_, kActuatorPivotG);

    // External cooling: base/cover to the constant-temperature outside
    // air, derated by any active airflow fault; the ambient the network
    // sees carries any active fault offset.
    const double h_ext = config_.externalFilmOverride
                             ? *config_.externalFilmOverride
                             : calibratedExternalFilmCoefficient();
    net_.setConductance(base_, ambient_,
                        h_ext * externalAreaM2(config_.enclosure) *
                            config_.coolingScale * cooling_fault_scale_);
    net_.setTemperature(ambient_, effectiveAmbientC());

    // Heat sources.
    net_.setHeatInput(air_, viscousPowerW());
    net_.setHeatInput(spindle_, spmPowerW());
    net_.setHeatInput(vcm_, vcmPowerW());
}

void
DriveThermalModel::setRpm(double rpm)
{
    HDDTHERM_REQUIRE(rpm > 0.0, "rpm must be positive");
    config_.rpm = rpm;
    rebuildOperatingPoint();
}

void
DriveThermalModel::setVcmDuty(double duty)
{
    HDDTHERM_REQUIRE(duty >= 0.0 && duty <= 1.0,
                     "VCM duty must be within [0, 1]");
    config_.vcmDuty = duty;
    // Duty moves only the VCM heat input: a right-hand-side change that
    // keeps the network's cached step factorization.
    net_.setHeatInput(vcm_, vcmPowerW());
}

void
DriveThermalModel::setAmbient(double ambient_c)
{
    config_.ambientC = ambient_c;
    net_.setTemperature(ambient_, effectiveAmbientC());
}

void
DriveThermalModel::setCoolingFaultScale(double scale)
{
    HDDTHERM_REQUIRE(scale > 0.0, "cooling fault scale must be positive");
    cooling_fault_scale_ = scale;
    rebuildOperatingPoint();
}

void
DriveThermalModel::setAmbientOffsetC(double delta_c)
{
    ambient_offset_c_ = delta_c;
    net_.setTemperature(ambient_, effectiveAmbientC());
}

void
DriveThermalModel::setPowered(bool on)
{
    powered_ = on;
    rebuildOperatingPoint();
}

double
DriveThermalModel::viscousPowerW() const
{
    if (!powered_)
        return 0.0;
    return viscousDissipationW(config_.rpm, config_.geometry.diameterInches,
                               config_.geometry.platters);
}

double
DriveThermalModel::vcmPowerW() const
{
    if (!powered_)
        return 0.0;
    const double full = config_.vcmPowerOverrideW
                            ? *config_.vcmPowerOverrideW
                            : thermal::vcmPowerW(
                                  config_.geometry.diameterInches);
    return full * config_.vcmDuty;
}

double
DriveThermalModel::spmPowerW() const
{
    if (!powered_)
        return 0.0;
    return config_.spmPowerOverrideW
               ? *config_.spmPowerOverrideW
               : spmMotorLossW(config_.geometry.diameterInches);
}

double
DriveThermalModel::totalPowerW() const
{
    return viscousPowerW() + vcmPowerW() + spmPowerW();
}

double
DriveThermalModel::airTempC() const
{
    return net_.temperature(air_);
}

double
DriveThermalModel::steadyAirTempC() const
{
    return net_.steadyState()[std::size_t(air_)];
}

std::vector<double>
DriveThermalModel::steadyTemps() const
{
    const auto all = net_.steadyState();
    return {all[std::size_t(air_)], all[std::size_t(spindle_)],
            all[std::size_t(base_)], all[std::size_t(vcm_)]};
}

std::vector<DriveThermalModel::HeatFlow>
DriveThermalModel::steadyHeatFlows() const
{
    const auto t = net_.steadyState();
    auto flow = [&](ThermalNetwork::NodeId from, ThermalNetwork::NodeId to,
                    const char* name) {
        return HeatFlow{name, net_.conductance(from, to) *
                                  (t[std::size_t(from)] -
                                   t[std::size_t(to)])};
    };
    return {
        flow(spindle_, air_, "spindle->air"),
        flow(vcm_, air_, "vcm->air"),
        flow(air_, base_, "air->base"),
        flow(spindle_, base_, "spindle->base"),
        flow(vcm_, base_, "vcm->base"),
        flow(base_, ambient_, "base->ambient"),
    };
}

void
DriveThermalModel::reset(double temp_c)
{
    net_.setAllTemperatures(temp_c);
}

void
DriveThermalModel::settle()
{
    net_.settleToSteadyState();
}

void
DriveThermalModel::settleWithAirAt(double air_temp_c)
{
    net_.settleToSteadyState();
    net_.shiftFreeTemperatures(air_temp_c - airTempC());
}

void
DriveThermalModel::advance(
    double duration, double dt,
    const std::function<void(double, double)>& observer)
{
    if (observer) {
        net_.advance(duration, dt,
                     [this, &observer](double t, const ThermalNetwork&) {
                         observer(t, airTempC());
                     });
    } else {
        net_.advance(duration, dt);
    }
}

void
DriveThermalModel::advanceTo(double t, double max_dt)
{
    HDDTHERM_REQUIRE(t >= clock_sec_,
                     "cannot advance the thermal clock backwards");
    const double dt = t - clock_sec_;
    clock_sec_ = t;
    if (dt > 0.0)
        advance(dt, std::min(max_dt, dt));
}

double
steadyAirTempC(const DriveThermalConfig& config)
{
    return DriveThermalModel(config).steadyAirTempC();
}


void
DriveThermalModel::saveState(snap::StateWriter& w) const
{
    w.f64("clock_sec", clock_sec_);
    w.f64("rpm", config_.rpm);
    w.f64("vcm_duty", config_.vcmDuty);
    w.f64("ambient_c", config_.ambientC);
    w.f64("cooling_fault_scale", cooling_fault_scale_);
    w.f64("ambient_offset_c", ambient_offset_c_);
    w.boolean("powered", powered_);
    net_.saveState(w);
}

void
DriveThermalModel::loadState(snap::StateReader& r)
{
    clock_sec_ = r.f64("clock_sec");
    config_.rpm = r.f64("rpm");
    config_.vcmDuty = r.f64("vcm_duty");
    config_.ambientC = r.f64("ambient_c");
    cooling_fault_scale_ = r.f64("cooling_fault_scale");
    ambient_offset_c_ = r.f64("ambient_offset_c");
    powered_ = r.boolean("powered");
    // Rebuild the operating-point-derived conductances and heat inputs,
    // then overwrite the transient node state bitwise.
    rebuildOperatingPoint();
    net_.loadState(r);
}

} // namespace hddtherm::thermal
