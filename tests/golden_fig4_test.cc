/**
 * @file
 * Golden-value regression layer for the Figure 4 trace replays.
 *
 * Each of the five core::figure4Scenarios(6000) scenarios is replayed at
 * its base RPM through StorageSystem::run, exactly as
 * WorkloadScenario::run does.  The mean response time, the number of
 * kernel events fired and the final simulated clock are pinned as exact
 * %.17g literals: any change to event order, tie-breaking or per-request
 * service arithmetic moves at least one of them.
 *
 * The literals were captured before StorageSystem::run moved from eager
 * submission of the whole trace to the reserved-key lazy arrival feed,
 * so they pin that the feed fires every arrival under the key eager
 * submission gave it.
 *
 * Re-blessing: a deliberate model change that moves these numbers
 * updates the table in the same commit (print the three values with
 * "%.17g").
 */
#include <cstdint>
#include <iterator>

#include <gtest/gtest.h>

#include "core/scenarios.h"

namespace hc = hddtherm::core;
namespace hs = hddtherm::sim;
namespace htr = hddtherm::trace;

namespace {

struct Fig4Golden
{
    const char* name;
    double meanMs;
    std::uint64_t fired;
    double finalClock;
};

constexpr Fig4Golden kFig4[] = {
    {"Openmail", 51.368994074926796, 29593, 17.036129032258064},
    {"OLTP", 5.127840898315621, 12000, 7.5867346938775508},
    {"Search-Engine", 13.765369682336116, 12000, 6.6123903225806444},
    {"TPC-C", 5.5641874009165981, 26898, 50.993454545454547},
    {"TPC-H", 6.7523509117214795, 12000, 15.009963484611372},
};

} // namespace

TEST(GoldenFig4, BaseRpmReplaysAreBitIdentical)
{
    const auto scenarios = hc::figure4Scenarios(6000);
    ASSERT_EQ(scenarios.size(), std::size(kFig4));
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        const hc::WorkloadScenario& sc = scenarios[i];
        const Fig4Golden& golden = kFig4[i];
        SCOPED_TRACE(sc.name);
        ASSERT_STREQ(sc.name.c_str(), golden.name);

        hs::SystemConfig cfg = sc.system;
        cfg.disk.rpm = sc.baseRpm;
        hs::StorageSystem array(cfg);
        const htr::SyntheticWorkload gen(sc.workload);
        const auto metrics =
            array.run(gen.generate(array.logicalSectors()).toRequests());

        EXPECT_EQ(metrics.count(), 6000u);
        EXPECT_EQ(metrics.meanMs(), golden.meanMs);
        EXPECT_EQ(array.events().fired(), golden.fired);
        EXPECT_EQ(array.events().now(), golden.finalClock);
    }
}
