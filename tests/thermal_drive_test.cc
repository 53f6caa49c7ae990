/**
 * @file
 * Validation of the calibrated drive thermal model against the paper's
 * anchors (Figure 1, Table 3, §5.2/5.3) plus property tests.
 */
#include <cmath>
#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "snap/state.h"
#include "thermal/calibration.h"
#include "thermal/correlations.h"
#include "thermal/drive_thermal.h"
#include "thermal/envelope.h"
#include "util/error.h"

namespace ht = hddtherm::thermal;
namespace hu = hddtherm::util;
namespace hsnap = hddtherm::snap;

namespace {

ht::DriveThermalConfig
config(double diameter, int platters, double rpm)
{
    ht::DriveThermalConfig c;
    c.geometry.diameterInches = diameter;
    c.geometry.platters = platters;
    c.rpm = rpm;
    return c;
}

/// Bitwise comparison of every node's temperature and heat input;
/// returns a description of the first difference, or an empty string.
std::string
networkMismatch(const ht::DriveThermalModel& a, const ht::DriveThermalModel& b)
{
    const auto& na = a.network();
    const auto& nb = b.network();
    for (int i = 0; i < na.size(); ++i) {
        const double ta = na.temperature(i), tb = nb.temperature(i);
        const double qa = na.node(i).heatInputW, qb = nb.node(i).heatInputW;
        if (std::memcmp(&ta, &tb, sizeof ta) != 0 ||
            std::memcmp(&qa, &qb, sizeof qa) != 0) {
            return na.node(i).name + ": T " + std::to_string(ta) + " vs " +
                   std::to_string(tb) + ", Q " + std::to_string(qa) +
                   " vs " + std::to_string(qb);
        }
    }
    return {};
}

} // namespace

TEST(ViscousDissipation, MatchesPaperSeries)
{
    // Paper §4.1 quotes the 2.6" 1-platter windage along the roadmap.
    EXPECT_NEAR(ht::viscousDissipationW(15098, 2.6, 1), 0.91, 0.005);
    EXPECT_NEAR(ht::viscousDissipationW(16263, 2.6, 1), 1.13, 0.02);
    EXPECT_NEAR(ht::viscousDissipationW(19972, 2.6, 1), 2.00, 0.02);
    EXPECT_NEAR(ht::viscousDissipationW(55819, 2.6, 1), 35.55, 0.7);
    EXPECT_NEAR(ht::viscousDissipationW(143470, 2.6, 1), 499.73, 5.0);
}

TEST(ViscousDissipation, ScalesWithPlattersAndDiameter)
{
    const double one = ht::viscousDissipationW(15000, 2.6, 1);
    EXPECT_NEAR(ht::viscousDissipationW(15000, 2.6, 4), 4.0 * one, 1e-9);
    // d^4.8: halving the diameter cuts windage by 2^4.8 ~ 27.9x.
    EXPECT_NEAR(ht::viscousDissipationW(15000, 1.3, 1),
                one / std::pow(2.0, 4.8), 1e-9);
}

TEST(VcmPower, MatchesPaperAnchors)
{
    EXPECT_NEAR(ht::vcmPowerW(2.6), 3.9, 1e-9);
    EXPECT_NEAR(ht::vcmPowerW(2.1), 2.28, 1e-9);
    EXPECT_NEAR(ht::vcmPowerW(1.6), 0.618, 1e-9);
    // Monotone in diameter.
    EXPECT_GT(ht::vcmPowerW(3.3), ht::vcmPowerW(2.6));
    EXPECT_GT(ht::vcmPowerW(2.0), ht::vcmPowerW(1.7));
}

TEST(Correlations, ReynoldsAndFilmAreMonotoneInRpm)
{
    double prev_h = 0.0;
    for (double rpm = 5000; rpm <= 250000; rpm += 5000) {
        const double h = ht::rotatingDiskFilmCoefficient(rpm, 0.033);
        EXPECT_GT(h, prev_h);
        prev_h = h;
    }
}

TEST(Correlations, TransitionIsContinuous)
{
    // Find the RPM where Re crosses the transition for r = 33 mm and check
    // the film coefficient is continuous there.
    const double r = 0.033;
    const double nu = ht::kDriveAir.kinematicViscosity;
    const double omega_c = ht::kDiskTransitionRe * nu / (r * r);
    const double rpm_c = omega_c * 60.0 / (2.0 * 3.14159265358979);
    const double below = ht::rotatingDiskFilmCoefficient(rpm_c * 0.999, r);
    const double above = ht::rotatingDiskFilmCoefficient(rpm_c * 1.001, r);
    EXPECT_NEAR(below, above, below * 0.01);
}

TEST(DriveThermal, CheetahSteadyStateHitsEnvelope)
{
    // Calibration anchor: 2.6" 1-platter at 15020 RPM = 45.22 C.
    ht::DriveThermalModel m(config(2.6, 1, ht::kEnvelopeRpm26));
    EXPECT_NEAR(m.steadyAirTempC(), ht::kThermalEnvelopeC, 0.01);
}

TEST(DriveThermal, Table3SmallPlatterAnchors)
{
    // Calibration anchors for the 2.1" and 1.6" sizes (Table 3, 2002).
    EXPECT_NEAR(ht::steadyAirTempC(config(2.1, 1, 18692)), 43.56, 0.01);
    EXPECT_NEAR(ht::steadyAirTempC(config(1.6, 1, 24533)), 41.64, 0.01);
}

TEST(DriveThermal, Table3PredictionsTrackPaper)
{
    // Post-calibration *predictions* vs paper Table 3 (2.6", 1 platter).
    // These were not fitted; allow a modest tolerance on the temperature
    // rise above ambient.
    const struct
    {
        double rpm;
        double paper_temp;
    } rows[] = {
        {16263, 45.47}, {19972, 46.46}, {24534, 48.26},
        {30130, 51.48}, {37001, 57.18}, {45452, 67.27},
        {55819, 85.04},
    };
    for (const auto& row : rows) {
        const double t = ht::steadyAirTempC(config(2.6, 1, row.rpm));
        const double rise = t - 28.0;
        const double paper_rise = row.paper_temp - 28.0;
        EXPECT_NEAR(rise, paper_rise, 0.20 * paper_rise + 0.5)
            << "rpm " << row.rpm;
    }
}

TEST(DriveThermal, VcmOffDropMatchesPaper)
{
    // Paper §5.3: at 24,534 RPM the 2.6" drive runs at 48.26 C with the
    // VCM on and 44.07 C with it off (a 4.19 C drop).
    auto cfg = config(2.6, 1, 24534);
    const double on = ht::steadyAirTempC(cfg);
    cfg.vcmDuty = 0.0;
    const double off = ht::steadyAirTempC(cfg);
    EXPECT_NEAR(on - off, 4.19, 1.0);
    EXPECT_LT(off, ht::kThermalEnvelopeC);
}

TEST(DriveThermal, SteadyTempMonotoneInRpm)
{
    double prev = 0.0;
    for (double rpm = 5000; rpm <= 150000; rpm += 2500) {
        const double t = ht::steadyAirTempC(config(2.6, 1, rpm));
        EXPECT_GT(t, prev) << "rpm " << rpm;
        prev = t;
    }
}

TEST(DriveThermal, SteadyTempMonotoneInPlatters)
{
    const double t1 = ht::steadyAirTempC(config(2.6, 1, 15000));
    const double t2 = ht::steadyAirTempC(config(2.6, 2, 15000));
    const double t4 = ht::steadyAirTempC(config(2.6, 4, 15000));
    EXPECT_LT(t1, t2);
    EXPECT_LT(t2, t4);
}

TEST(DriveThermal, SmallerPlattersRunCoolerAtSameRpm)
{
    const double t26 = ht::steadyAirTempC(config(2.6, 1, 20000));
    const double t21 = ht::steadyAirTempC(config(2.1, 1, 20000));
    const double t16 = ht::steadyAirTempC(config(1.6, 1, 20000));
    EXPECT_GT(t26, t21);
    EXPECT_GT(t21, t16);
}

TEST(DriveThermal, AmbientShiftsSteadyStateNearlyLinearly)
{
    auto cfg = config(2.6, 1, 15020);
    const double base = ht::steadyAirTempC(cfg);
    cfg.ambientC = 23.0;
    const double cooler = ht::steadyAirTempC(cfg);
    EXPECT_NEAR(base - cooler, 5.0, 1e-6);
}

TEST(DriveThermal, TransientShapeMatchesFigure1)
{
    // Figure 1: from a 28 C cold start the Cheetah air temperature passes
    // ~33 C within the first minute and reaches steady state (45.22 C)
    // within the hour.
    ht::DriveThermalModel m(config(2.6, 1, ht::kEnvelopeRpm26));
    m.reset(28.0);
    m.advance(60.0);
    const double after_1min = m.airTempC();
    EXPECT_GT(after_1min, 29.5);
    EXPECT_LT(after_1min, 37.0);

    m.advance(47.0 * 60.0);
    const double after_48min = m.airTempC();
    const double steady = m.steadyAirTempC();
    EXPECT_NEAR(after_48min, steady, 0.60);
    EXPECT_GT(after_48min, steady - 1.5);
}

TEST(DriveThermal, TransientNeverOvershootsSteady)
{
    ht::DriveThermalModel m(config(2.6, 1, 20000));
    m.reset(28.0);
    const double steady = m.steadyAirTempC();
    m.advance(3600.0, 0.1, [&](double, double temp) {
        EXPECT_LE(temp, steady + 1e-6);
    });
}

TEST(DriveThermal, SettleJumpsToSteady)
{
    ht::DriveThermalModel m(config(2.6, 1, 18000));
    m.reset(28.0);
    m.settle();
    EXPECT_NEAR(m.airTempC(), m.steadyAirTempC(), 1e-9);
}

TEST(DriveThermal, SetRpmTakesEffect)
{
    ht::DriveThermalModel m(config(2.6, 1, 15000));
    const double cool = m.steadyAirTempC();
    m.setRpm(25000);
    EXPECT_GT(m.steadyAirTempC(), cool);
    EXPECT_DOUBLE_EQ(m.config().rpm, 25000);
}

TEST(DriveThermal, CoolingScaleLowersTemperature)
{
    auto cfg = config(2.6, 1, 20000);
    const double base = ht::steadyAirTempC(cfg);
    cfg.coolingScale = 2.0;
    EXPECT_LT(ht::steadyAirTempC(cfg), base);
}

TEST(DriveThermal, SmallEnclosureRunsHotter)
{
    auto cfg = config(2.6, 1, 15020);
    const double ff35 = ht::steadyAirTempC(cfg);
    cfg.enclosure = hddtherm::hdd::FormFactor::ff25();
    const double ff25 = ht::steadyAirTempC(cfg);
    // Paper §4.2.2: the 2.5" enclosure falls off the roadmap immediately
    // and needs roughly 15 C more cooling.
    EXPECT_GT(ff25, ff35 + 5.0);
}

TEST(DriveThermal, RejectsInvalidConfig)
{
    EXPECT_THROW({ ht::DriveThermalModel m(config(2.6, 1, 0.0)); },
                 hu::ModelError);
    auto cfg = config(2.6, 1, 15000);
    cfg.vcmDuty = 1.5;
    EXPECT_THROW({ ht::DriveThermalModel m(cfg); }, hu::ModelError);
    cfg.vcmDuty = 1.0;
    cfg.coolingScale = 0.0;
    EXPECT_THROW({ ht::DriveThermalModel m(cfg); }, hu::ModelError);
}

TEST(Envelope, MaxRpmMatchesCalibrationAnchor)
{
    const double rpm = ht::maxRpmWithinEnvelope(config(2.6, 1, 15000));
    EXPECT_NEAR(rpm, ht::kEnvelopeRpm26, 30.0);
}

TEST(Envelope, SmallerPlattersAllowHigherRpm)
{
    const double rpm26 = ht::maxRpmWithinEnvelope(config(2.6, 1, 15000));
    const double rpm21 = ht::maxRpmWithinEnvelope(config(2.1, 1, 15000));
    const double rpm16 = ht::maxRpmWithinEnvelope(config(1.6, 1, 15000));
    EXPECT_GT(rpm21, rpm26);
    EXPECT_GT(rpm16, rpm21);
}

TEST(Envelope, VcmOffRaisesLimit)
{
    auto cfg = config(2.6, 1, 15000);
    const double on = ht::maxRpmWithinEnvelope(cfg);
    cfg.vcmDuty = 0.0;
    const double off = ht::maxRpmWithinEnvelope(cfg);
    // Paper §5.2: 15,020 -> 26,750 RPM for the 2.6" size.
    EXPECT_GT(off, on + 5000.0);
}

TEST(Envelope, CoolingScaleForPlattersNormalizes)
{
    EXPECT_DOUBLE_EQ(ht::coolingScaleForPlatters(1), 1.0);
    const double s2 = ht::coolingScaleForPlatters(2);
    const double s4 = ht::coolingScaleForPlatters(4);
    EXPECT_GT(s2, 1.0);
    EXPECT_GT(s4, s2);

    // With the granted budget, the n-platter stack meets the envelope at
    // the reference point.
    auto cfg = config(2.6, 4, ht::kEnvelopeRpm26);
    cfg.coolingScale = s4;
    EXPECT_NEAR(ht::steadyAirTempC(cfg), ht::kThermalEnvelopeC, 0.01);
}

TEST(Envelope, ImpossibleEnvelopeReturnsZero)
{
    const double rpm =
        ht::maxRpmWithinEnvelope(config(2.6, 1, 15000), 20.0);
    EXPECT_DOUBLE_EQ(rpm, 0.0);
}

TEST(SpmLoss, CalibratedValuesAreReasonable)
{
    // Solved from the Table 3 anchors; the paper's data implies roughly
    // 10-12 W of non-windage spindle loss across sizes.
    for (double d : {1.6, 2.1, 2.6}) {
        const double s = ht::spmMotorLossW(d);
        EXPECT_GT(s, 5.0) << d;
        EXPECT_LT(s, 20.0) << d;
    }
}

TEST(DriveThermalCache, ControlUpdatesMatchFullRebuild)
{
    // setVcmDuty/setAmbient/setAmbientOffsetC touch one term each; a twin
    // that re-runs the full operating-point rebuild after every change
    // (setRpm at the current speed) must stay bit-identical, across real
    // speed changes and power cycles too.
    const auto cfg = config(2.6, 1, 15020.0);
    ht::DriveThermalModel fast(cfg);
    ht::DriveThermalModel full(cfg);
    auto rebuild = [&full] { full.setRpm(full.config().rpm); };
    double t = 0.0;
    for (int i = 0; i < 3000; ++i) {
        const double duty = 0.5 + 0.5 * std::sin(0.37 * i);
        const double ambient = 28.0 + 3.0 * std::sin(0.011 * i);
        fast.setVcmDuty(duty);
        fast.setAmbient(ambient);
        full.setVcmDuty(duty);
        rebuild();
        full.setAmbient(ambient);
        rebuild();
        if (i % 400 == 100) {
            const double offset = 0.25 * (i % 3);
            fast.setAmbientOffsetC(offset);
            full.setAmbientOffsetC(offset);
            rebuild();
        }
        if (i % 500 == 250) {
            const double rpm = i % 1000 == 250 ? 24534.0 : 15020.0;
            fast.setRpm(rpm);
            full.setRpm(rpm);
        }
        if (i % 700 == 600) {
            const bool on = !fast.powered();
            fast.setPowered(on);
            full.setPowered(on);
        }
        t += 0.1;
        fast.advanceTo(t);
        full.advanceTo(t);
        const std::string m = networkMismatch(fast, full);
        ASSERT_TRUE(m.empty()) << m << " at tick " << i;
    }
}

TEST(DriveThermalCache, LoadStateAtOtherRpmMatchesFreshRestore)
{
    const auto cfg = config(2.6, 1, 15020.0);

    // The checkpoint: a drive at a different speed with its own history.
    ht::DriveThermalModel source(cfg);
    source.setRpm(24534.0);
    source.setVcmDuty(0.4);
    for (int i = 0; i < 300; ++i)
        source.advance(0.1);
    hsnap::StateWriter w("thermal.model");
    source.saveState(w);
    const auto buf = w.buffer();

    // A warm model whose cached factorization (15 020 RPM conductances,
    // dt = 0.1 s exactly) would be wrong for the restored operating point.
    ht::DriveThermalModel warm(cfg);
    warm.setVcmDuty(0.9);
    for (int i = 0; i < 200; ++i)
        warm.advance(0.1);
    ht::DriveThermalModel fresh(cfg);

    hsnap::StateReader warm_reader("thermal.model", buf.data(), buf.size());
    warm.loadState(warm_reader);
    hsnap::StateReader fresh_reader("thermal.model", buf.data(), buf.size());
    fresh.loadState(fresh_reader);
    ASSERT_TRUE(networkMismatch(warm, fresh).empty());

    for (int i = 0; i < 500; ++i) {
        const double duty = i % 2 ? 0.7 : 0.1;
        warm.setVcmDuty(duty);
        fresh.setVcmDuty(duty);
        warm.advance(0.1);
        fresh.advance(0.1);
        const std::string m = networkMismatch(warm, fresh);
        ASSERT_TRUE(m.empty()) << m << " at step " << i;
    }
}
