#include "dtm/mirror.h"

#include <algorithm>

#include "thermal/envelope.h"
#include "util/error.h"
#include "util/log.h"

namespace hddtherm::dtm {

const char*
mirrorPolicyName(MirrorPolicy policy)
{
    switch (policy) {
      case MirrorPolicy::Balanced:
        return "balanced";
      case MirrorPolicy::ThermalSteer:
        return "thermal-steer";
    }
    return "unknown";
}

MirrorDtmSimulation::MirrorDtmSimulation(const MirrorDtmConfig& config)
    : config_(config)
{
    HDDTHERM_REQUIRE(config_.system.raid == sim::RaidLevel::Raid1,
                     "mirrored DTM needs a RAID-1 system");
    HDDTHERM_REQUIRE(config_.controlIntervalSec > 0.0,
                     "control interval must be positive");
    HDDTHERM_REQUIRE(config_.swapHysteresisC >= 0.0,
                     "negative swap hysteresis");
    HDDTHERM_REQUIRE(config_.memberAmbientC.empty() ||
                         int(config_.memberAmbientC.size()) ==
                             config_.system.disks,
                     "per-member ambient list must match the disk count");
}

MirrorDtmResult
MirrorDtmSimulation::run(const std::vector<sim::IoRequest>& workload)
{
    HDDTHERM_REQUIRE(!workload.empty(), "empty workload");

    sim::StorageSystem system(config_.system);
    const int members = system.diskCount();

    // One calibrated thermal model per member, each fed by its own disk's
    // measured seek duty.
    thermal::DriveThermalConfig tcfg;
    tcfg.geometry = config_.system.disk.geometry;
    tcfg.rpm = config_.system.disk.rpm;
    tcfg.ambientC = config_.ambientC;
    tcfg.vcmDuty = 1.0;
    tcfg.coolingScale =
        thermal::coolingScaleForPlatters(tcfg.geometry.platters);
    std::vector<thermal::DriveThermalModel> models;
    models.reserve(std::size_t(members));
    for (int i = 0; i < members; ++i) {
        auto member_cfg = tcfg;
        if (!config_.memberAmbientC.empty())
            member_cfg.ambientC = config_.memberAmbientC[std::size_t(i)];
        models.emplace_back(member_cfg);
        models.back().settleWithAirAt(
            std::min(models.back().steadyAirTempC(), config_.envelopeC));
    }

    std::size_t completed = 0;
    system.setCompletionCallback(
        [&completed](const sim::IoCompletion&) { ++completed; });
    for (const auto& req : workload)
        system.submit(req);

    MirrorDtmResult result;
    result.maxTempC.assign(std::size_t(members), 0.0);
    result.meanDuty.assign(std::size_t(members), 0.0);

    int preferred = 0;
    if (config_.policy == MirrorPolicy::ThermalSteer)
        system.setPreferredMirror(preferred);

    std::vector<double> last_seek(std::size_t(members), 0.0);
    engine::SimTime last_tick = 0.0;

    std::function<void()> tick = [&]() {
        const engine::SimTime now = system.events().now();
        const double dt = now - last_tick;
        last_tick = now;

        if (dt > 0.0) {
            bool exceeded = false;
            for (int i = 0; i < members; ++i) {
                const auto idx = std::size_t(i);
                const double seek = system.disk(i).activity().seekSec;
                const double duty = std::clamp(
                    (seek - last_seek[idx]) / dt, 0.0, 1.0);
                last_seek[idx] = seek;
                result.meanDuty[idx] += duty * dt;
                models[idx].setVcmDuty(duty);
                models[idx].advance(dt,
                                    std::min(config_.thermalDtSec, dt));
                const double temp = models[idx].airTempC();
                result.maxTempC[idx] =
                    std::max(result.maxTempC[idx], temp);
                exceeded |= temp > config_.envelopeC;
            }
            if (exceeded)
                result.envelopeExceededSec += dt;

            if (config_.policy == MirrorPolicy::ThermalSteer) {
                // Steer reads toward the coolest member, with hysteresis
                // so small fluctuations don't thrash the preference.
                int coolest = 0;
                for (int i = 1; i < members; ++i) {
                    if (models[std::size_t(i)].airTempC() <
                        models[std::size_t(coolest)].airTempC()) {
                        coolest = i;
                    }
                }
                if (coolest != preferred &&
                    models[std::size_t(preferred)].airTempC() -
                            models[std::size_t(coolest)].airTempC() >
                        config_.swapHysteresisC) {
                    preferred = coolest;
                    system.setPreferredMirror(preferred);
                    ++result.swaps;
                }
            }
        }

        if (completed < workload.size()) {
            if (now >= config_.maxSimulatedSec) {
                util::logWarn("mirror co-simulation hit the %.0f s cap "
                              "with %zu/%zu requests done",
                              config_.maxSimulatedSec, completed,
                              workload.size());
                return;
            }
            system.events().scheduleAfter(config_.controlIntervalSec,
                                          tick);
        }
    };
    system.events().scheduleAfter(config_.controlIntervalSec, tick);
    system.runAll();

    result.metrics = system.metrics();
    result.simulatedSec = system.events().now();
    if (result.simulatedSec > 0.0) {
        for (auto& d : result.meanDuty)
            d /= result.simulatedSec;
    }
    return result;
}

} // namespace hddtherm::dtm
