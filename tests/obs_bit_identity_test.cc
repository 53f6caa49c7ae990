/**
 * @file
 * The obs layer's core property: metric collection is pure observation.
 * Enabling metrics must leave every simulation result bit-identical —
 * fault-free and faulted, for a single co-simulation and for a
 * multi-threaded fleet run.
 */
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "dtm/cosim.h"
#include "fault/fault_schedule.h"
#include "fleet/fleet_sim.h"
#include "obs/metrics.h"

namespace hd = hddtherm::dtm;
namespace hfa = hddtherm::fault;
namespace hf = hddtherm::fleet;
namespace ho = hddtherm::obs;
namespace hs = hddtherm::sim;

namespace {

class ObsBitIdentityTest : public ::testing::Test
{
  protected:
    void SetUp() override { ho::setEnabled(false); }
    void TearDown() override { ho::setEnabled(false); }
};

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

hfa::FaultEvent
event(double at, hfa::FaultKind kind, double value, double duration = 0.0,
      int target = -1)
{
    hfa::FaultEvent e;
    e.timeSec = at;
    e.kind = kind;
    e.value = value;
    e.durationSec = duration;
    e.target = target;
    return e;
}

/// A hot drive under GateRequests so the DTM loop actually acts (and
/// the dtm.* instrumentation sites fire).
hd::CoSimConfig
hotConfig()
{
    hd::CoSimConfig cfg;
    cfg.system = smallSystem(24534.0);
    cfg.policy = hd::DtmPolicy::GateRequests;
    return cfg;
}

hfa::FaultSchedule
stressFaults()
{
    return hfa::FaultSchedule(
        {event(0.5, hfa::FaultKind::AmbientStep, 4.0),
         event(1.0, hfa::FaultKind::AmbientSpike, 8.0, 2.0),
         event(1.5, hfa::FaultKind::SensorNoise, 0.4, 3.0),
         event(2.0, hfa::FaultKind::SensorDropout, 0.0, 2.5)},
        4242);
}

/// Every CoSimResult field, bit-for-bit.
void
expectIdentical(const hd::CoSimResult& a, const hd::CoSimResult& b)
{
    EXPECT_EQ(a.metrics.count(), b.metrics.count());
    EXPECT_EQ(a.metrics.meanMs(), b.metrics.meanMs());
    EXPECT_EQ(a.metrics.stats().variance(), b.metrics.stats().variance());
    EXPECT_EQ(a.metrics.histogram().bins(), b.metrics.histogram().bins());
    EXPECT_EQ(a.speedChanges, b.speedChanges);
    EXPECT_EQ(a.maxTempC, b.maxTempC);
    EXPECT_EQ(a.meanTempC, b.meanTempC);
    EXPECT_EQ(a.envelopeExceededSec, b.envelopeExceededSec);
    EXPECT_EQ(a.gatedSec, b.gatedSec);
    EXPECT_EQ(a.gateEvents, b.gateEvents);
    EXPECT_EQ(a.simulatedSec, b.simulatedSec);
    EXPECT_EQ(a.meanVcmDuty, b.meanVcmDuty);
    EXPECT_EQ(a.invalidReadings, b.invalidReadings);
    EXPECT_EQ(a.failSafeActivations, b.failSafeActivations);
    EXPECT_EQ(a.failSafeSec, b.failSafeSec);
}

/// Every FleetResult aggregate, bit-for-bit.
void
expectIdentical(const hf::FleetResult& a, const hf::FleetResult& b)
{
    EXPECT_EQ(a.metrics.count(), b.metrics.count());
    EXPECT_EQ(a.metrics.meanMs(), b.metrics.meanMs());
    EXPECT_EQ(a.metrics.stats().variance(), b.metrics.stats().variance());
    EXPECT_EQ(a.meanLatencyMs, b.meanLatencyMs);
    EXPECT_EQ(a.p95LatencyMs, b.p95LatencyMs);
    EXPECT_EQ(a.maxDriveTempC, b.maxDriveTempC);
    EXPECT_EQ(a.gateEvents, b.gateEvents);
    EXPECT_EQ(a.speedChanges, b.speedChanges);
    EXPECT_EQ(a.gatedSec, b.gatedSec);
    EXPECT_EQ(a.invalidReadings, b.invalidReadings);
    EXPECT_EQ(a.failSafeActivations, b.failSafeActivations);
    EXPECT_EQ(a.failSafeSec, b.failSafeSec);
    EXPECT_EQ(a.simulatedSec, b.simulatedSec);
    EXPECT_EQ(a.epochs, b.epochs);
    ASSERT_EQ(a.chassis.size(), b.chassis.size());
    for (std::size_t i = 0; i < a.chassis.size(); ++i) {
        EXPECT_EQ(a.chassis[i].peakDriveAmbientC,
                  b.chassis[i].peakDriveAmbientC);
        EXPECT_EQ(a.chassis[i].peakDriveTempC, b.chassis[i].peakDriveTempC);
        EXPECT_EQ(a.chassis[i].gateEvents, b.chassis[i].gateEvents);
        EXPECT_EQ(a.chassis[i].gatedSec, b.chassis[i].gatedSec);
    }
}

/// Run with metrics enabled.
hd::CoSimResult
observedRun(const hd::CoSimConfig& cfg,
            const std::vector<hs::IoRequest>& workload)
{
    ho::setEnabled(true);
    hd::CoSimEngine engine(cfg);
    engine.start(workload);
    engine.advanceToCompletion();
    ho::setEnabled(false);
    return engine.result();
}

hf::FleetConfig
smallFleet()
{
    hf::FleetConfig cfg;
    cfg.racks = 1;
    cfg.rack.chassisCount = 2;
    cfg.chassis.bays = 2;
    cfg.bay.system = smallSystem(24534.0);
    cfg.bay.policy = hd::DtmPolicy::GateRequests;
    cfg.workload.requests = 120;
    cfg.workload.arrivalRatePerSec = 100.0;
    cfg.epochSec = 0.25;
    cfg.maxSimulatedSec = 600.0;
    cfg.seed = 7;
    return cfg;
}

} // namespace

TEST_F(ObsBitIdentityTest, MetricsNeverPerturbFaultFreeCoSim)
{
    const auto cfg = hotConfig();
    const auto workload = randomWorkload(
        800, hs::StorageSystem(cfg.system).logicalSectors(), 120.0);

    const std::size_t registered_before =
        ho::MetricsRegistry::global().size();
    const auto plain = hd::CoSimulation(cfg).run(workload);
    const auto observed = observedRun(cfg, workload);

    expectIdentical(plain, observed);
    EXPECT_GT(plain.metrics.count(), 0u);
    // The observed run must actually have recorded something, or the
    // property is vacuous.
    EXPECT_GT(ho::MetricsRegistry::global().size(), registered_before);
    const auto snap = ho::MetricsRegistry::global().snapshot();
    std::uint64_t total = 0;
    for (const auto& c : snap.counters)
        total += c.value;
    EXPECT_GT(total, 0u);
}

TEST_F(ObsBitIdentityTest, MetricsNeverPerturbFaultedCoSim)
{
    auto cfg = hotConfig();
    cfg.faults = stressFaults();
    cfg.maxSimulatedSec = 60.0;
    const auto workload = randomWorkload(
        800, hs::StorageSystem(cfg.system).logicalSectors(), 120.0);

    const auto plain = hd::CoSimulation(cfg).run(workload);
    const auto observed = observedRun(cfg, workload);

    expectIdentical(plain, observed);
    // The fault mix must actually have bitten, so the fault.* counters
    // had work to do while staying invisible.
    EXPECT_GT(plain.invalidReadings, 0u);
    EXPECT_GT(plain.failSafeActivations, 0u);
}

TEST_F(ObsBitIdentityTest, ReversedEnablementOrderAgreesToo)
{
    // Order-independence: enabled-then-disabled and disabled-then-enabled
    // pairs bracket any cross-test registry state.
    const auto cfg = hotConfig();
    const auto workload = randomWorkload(
        400, hs::StorageSystem(cfg.system).logicalSectors(), 120.0);

    const auto observed_first = observedRun(cfg, workload);
    const auto plain = hd::CoSimulation(cfg).run(workload);
    expectIdentical(observed_first, plain);
}

TEST_F(ObsBitIdentityTest, MetricsNeverPerturbFleetRuns)
{
    const auto cfg = smallFleet();

    auto plain = hf::FleetSimulation(cfg).run(2, nullptr);

    ho::setEnabled(true);
    auto observed = hf::FleetSimulation(cfg).run(2, nullptr);
    ho::setEnabled(false);

    expectIdentical(plain, observed);
}

TEST_F(ObsBitIdentityTest, MetricsNeverPerturbFaultedFleetRuns)
{
    auto cfg = smallFleet();
    cfg.faults = hfa::FaultSchedule(
        {event(1.0, hfa::FaultKind::AirflowDegrade, 0.6, 4.0, 0),
         event(1.0, hfa::FaultKind::SensorNoise, 0.3, 6.0),
         event(1.5, hfa::FaultKind::BayKill, 0.0, 0.0, 1),
         event(3.0, hfa::FaultKind::BayRestore, 0.0, 0.0, 1),
         event(1.0, hfa::FaultKind::SensorDropout, 0.0, 2.0, 2)},
        99);

    auto plain = hf::FleetSimulation(cfg).run(1, nullptr);

    ho::setEnabled(true);
    auto observed = hf::FleetSimulation(cfg).run(2, nullptr);
    ho::setEnabled(false);

    expectIdentical(plain, observed);
    EXPECT_GT(plain.invalidReadings, 0u);
}
