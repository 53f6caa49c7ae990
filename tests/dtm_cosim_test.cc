/**
 * @file
 * Tests of the thermal/performance co-simulation with DTM control.
 */
#include <string>

#include <gtest/gtest.h>

#include "dtm/cosim.h"
#include "snap/format.h"
#include "util/error.h"

namespace hd = hddtherm::dtm;
namespace hs = hddtherm::sim;
namespace hsnap = hddtherm::snap;
namespace ht = hddtherm::thermal;
namespace hu = hddtherm::util;

namespace {

hs::SystemConfig
smallSystem(double rpm)
{
    hs::SystemConfig cfg;
    cfg.disk.geometry.diameterInches = 2.6;
    cfg.disk.geometry.platters = 1;
    cfg.disk.tech = {500e3, 60e3};
    cfg.disk.rpm = rpm;
    cfg.disk.rpmChangeSecPerKrpm = 0.02;
    cfg.disks = 1;
    return cfg;
}

std::vector<hs::IoRequest>
randomWorkload(std::size_t n, std::int64_t space, double rate)
{
    std::vector<hs::IoRequest> out;
    out.reserve(n);
    double t = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        t += 1.0 / rate;
        hs::IoRequest r;
        r.id = i + 1;
        r.arrival = t;
        r.lba = std::int64_t(i * 7919 * 512) % (space - 64);
        r.sectors = 8;
        r.type = i % 4 ? hs::IoType::Read : hs::IoType::Write;
        out.push_back(r);
    }
    return out;
}

std::int64_t
diskSpace(const hs::SystemConfig& cfg)
{
    return hs::StorageSystem(cfg).logicalSectors();
}

} // namespace

TEST(CoSim, CompletesWorkloadWithoutPolicy)
{
    hd::CoSimConfig cfg;
    cfg.system = smallSystem(15020.0);
    hd::CoSimulation cosim(cfg);
    const auto workload = randomWorkload(500, diskSpace(cfg.system), 100.0);
    const auto result = cosim.run(workload);
    EXPECT_EQ(result.metrics.count(), 500u);
    EXPECT_GT(result.simulatedSec, 4.0);
    EXPECT_GT(result.maxTempC, 0.0);
    EXPECT_GT(result.meanVcmDuty, 0.0);
    EXPECT_LE(result.meanVcmDuty, 1.0);
}

TEST(CoSim, EnvelopeDesignStaysWithinEnvelope)
{
    hd::CoSimConfig cfg;
    cfg.system = smallSystem(15020.0);
    cfg.policy = hd::DtmPolicy::None;
    hd::CoSimulation cosim(cfg);
    const auto workload = randomWorkload(500, diskSpace(cfg.system), 100.0);
    const auto result = cosim.run(workload);
    // Designed for worst case: partial duty keeps it at/below envelope.
    EXPECT_LE(result.maxTempC, ht::kThermalEnvelopeC + 0.05);
}

TEST(CoSim, UnguardedFastDriveViolatesGuardedDoesNot)
{
    const auto make = [](hd::DtmPolicy policy) {
        hd::CoSimConfig cfg;
        cfg.system = smallSystem(24534.0);
        cfg.policy = policy;
        return cfg;
    };
    const auto workload =
        randomWorkload(500, diskSpace(smallSystem(24534.0)), 100.0);

    hd::CoSimulation unguarded(make(hd::DtmPolicy::None));
    const auto bad = unguarded.run(workload);
    EXPECT_GT(bad.maxTempC, ht::kThermalEnvelopeC);
    EXPECT_GT(bad.envelopeExceededSec, 0.0);

    hd::CoSimulation guarded(make(hd::DtmPolicy::GateRequests));
    const auto good = guarded.run(workload);
    EXPECT_LE(good.maxTempC, ht::kThermalEnvelopeC + 0.1);
}

TEST(CoSim, HigherRpmImprovesResponseTimes)
{
    // Light load: the long-stride requests seek nearly full-stroke, so
    // the thermally sustainable VCM duty caps the arrival rate the DTM
    // guard can admit.
    const auto workload =
        randomWorkload(1000, diskSpace(smallSystem(15020.0)), 28.0);
    auto run_at = [&workload](double rpm) {
        hd::CoSimConfig cfg;
        cfg.system = smallSystem(rpm);
        cfg.policy = hd::DtmPolicy::GateRequests;
        hd::CoSimulation cosim(cfg);
        return cosim.run(workload).metrics.meanMs();
    };
    EXPECT_LT(run_at(24534.0), run_at(15020.0));
}

TEST(CoSim, SafetyCapReleasesGates)
{
    // An operating point whose cooling configuration cannot get below the
    // resume threshold thrashes; the cap must still terminate the run.
    hd::CoSimConfig cfg;
    cfg.system = smallSystem(37001.0);
    cfg.policy = hd::DtmPolicy::GateAndLowRpm;
    cfg.lowRpm = 22001.0;
    cfg.maxSimulatedSec = 30.0;
    hd::CoSimulation cosim(cfg);
    const auto workload =
        randomWorkload(2000, diskSpace(cfg.system), 400.0);
    const auto result = cosim.run(workload);
    EXPECT_EQ(result.metrics.count(), 2000u); // all complete eventually
    EXPECT_GT(result.gateEvents, 0u);
}

TEST(CoSim, RejectsInvalidConfig)
{
    hd::CoSimConfig cfg;
    cfg.system = smallSystem(20000.0);
    cfg.controlIntervalSec = 0.0;
    EXPECT_THROW({ hd::CoSimulation c(cfg); }, hu::ModelError);

    cfg = hd::CoSimConfig{};
    cfg.system = smallSystem(20000.0);
    cfg.gateThresholdC = 40.0;
    cfg.resumeThresholdC = 41.0; // inverted band
    EXPECT_THROW({ hd::CoSimulation c(cfg); }, hu::ModelError);

    cfg = hd::CoSimConfig{};
    cfg.system = smallSystem(20000.0);
    cfg.policy = hd::DtmPolicy::GateAndLowRpm;
    cfg.lowRpm = 25000.0; // above full speed
    EXPECT_THROW({ hd::CoSimulation c(cfg); }, hu::ModelError);
}

TEST(CoSim, EmptyWorkloadRejected)
{
    hd::CoSimConfig cfg;
    cfg.system = smallSystem(20000.0);
    hd::CoSimulation cosim(cfg);
    EXPECT_THROW(cosim.run({}), hu::ModelError);
}

TEST(CoSim, AmbientProfileDrivesTemperature)
{
    // A scheduled ambient drop must pull the drive's temperature down
    // relative to the constant-ambient run.  The run must be long enough
    // (minutes) for the slow case/base mode to respond.
    const auto workload =
        randomWorkload(2000, diskSpace(smallSystem(15020.0)), 10.0);

    hd::CoSimConfig warm;
    warm.system = smallSystem(15020.0);
    hd::CoSimulation warm_sim(warm);
    const auto warm_result = warm_sim.run(workload);

    hd::CoSimConfig cooled = warm;
    cooled.ambientProfile = {{0.0, 28.0}, {2.0, 18.0}};
    hd::CoSimulation cooled_sim(cooled);
    const auto cooled_result = cooled_sim.run(workload);

    EXPECT_LT(cooled_result.meanTempC, warm_result.meanTempC - 1.0);
}

TEST(CoSim, AmbientProfileClampsBeyondEnds)
{
    // A single-segment profile extends by clamping; the run must still
    // complete even when simulated time passes the last breakpoint.
    hd::CoSimConfig cfg;
    cfg.system = smallSystem(15020.0);
    cfg.ambientProfile = {{0.0, 28.0}, {1.0, 26.0}};
    hd::CoSimulation cosim(cfg);
    const auto workload =
        randomWorkload(300, diskSpace(cfg.system), 30.0);
    const auto result = cosim.run(workload);
    EXPECT_EQ(result.metrics.count(), 300u);
    EXPECT_GT(result.simulatedSec, 5.0);
}

TEST(CoSim, SetAmbientReportsProfilePrecedence)
{
    // Regression: setAmbient used to be silently ignored while an
    // ambientProfile was active; it must now report the rejection.
    const auto workload =
        randomWorkload(200, diskSpace(smallSystem(15020.0)), 50.0);

    hd::CoSimConfig scheduled;
    scheduled.system = smallSystem(15020.0);
    scheduled.ambientProfile = {{0.0, 28.0}, {10.0, 30.0}};
    hd::CoSimEngine owned(scheduled);
    owned.start(workload);
    owned.advanceTo(1.0);
    EXPECT_FALSE(owned.setAmbient(10.0)); // profile owns the ambient
    owned.advanceToCompletion();

    hd::CoSimConfig constant;
    constant.system = smallSystem(15020.0);
    hd::CoSimEngine free(constant);
    free.start(workload);
    free.advanceTo(1.0);
    EXPECT_TRUE(free.setAmbient(20.0)); // no profile: re-point applies
    free.advanceToCompletion();
}

TEST(CoSim, SaveSectionsNeedsStartButNoOptIn)
{
    // Every engine is checkpointable: its events are records, so no
    // opt-in is needed.  Before start() nothing is in flight, and saving
    // fails before any section is written.
    const auto workload =
        randomWorkload(100, diskSpace(smallSystem(15020.0)), 50.0);
    hd::CoSimConfig cfg;
    cfg.system = smallSystem(15020.0);

    hd::CoSimEngine engine(cfg);
    hsnap::CheckpointWriter out(0);
    try {
        engine.saveSections(out);
        ADD_FAILURE() << "saveSections succeeded before start";
    } catch (const hu::ModelError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("nothing is in flight yet"), std::string::npos)
            << what;
    }
    EXPECT_EQ(out.sectionCount(), 0u);

    engine.start(workload);
    engine.advanceTo(0.5);
    EXPECT_NO_THROW(engine.saveSections(out));
    EXPECT_TRUE(out.has("dtm.cosim"));
    EXPECT_TRUE(out.has("engine.kernel"));
}

TEST(CoSim, PolicyNames)
{
    EXPECT_STREQ(hd::dtmPolicyName(hd::DtmPolicy::None), "none");
    EXPECT_STREQ(hd::dtmPolicyName(hd::DtmPolicy::GateRequests),
                 "gate-vcm");
    EXPECT_STREQ(hd::dtmPolicyName(hd::DtmPolicy::GateAndLowRpm),
                 "gate-vcm+low-rpm");
}
