/**
 * @file
 * Property tests of the checkpoint/restore contract: a resumed run is
 * bit-identical to the uninterrupted one — same results, same post-resume
 * checkpoint bytes — for standalone co-sims (fault-free and faulted) and
 * for fleet runs across executor thread counts.  Also covers the resume
 * preconditions that must fail loudly: config-hash and
 * workload-fingerprint mismatches, and unsnapshottable kernels.
 */
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dtm/cosim.h"
#include "engine/kernel.h"
#include "fault/fault_schedule.h"
#include "fleet/fleet_sim.h"
#include "snap/checkpoint.h"
#include "snap/format.h"
#include "snap/snapshot.h"
#include "snap/state.h"
#include "util/error.h"

namespace fs = std::filesystem;
namespace hd = hddtherm::dtm;
namespace he = hddtherm::engine;
namespace hf = hddtherm::fleet;
namespace hfault = hddtherm::fault;
namespace hs = hddtherm::sim;
namespace hsnap = hddtherm::snap;
namespace hu = hddtherm::util;

namespace {

/// A hot 2.6" drive (steady state above the envelope at full duty) so
/// gate/governor policies actually actuate during the test window.
hs::SystemConfig
hotDrive()
{
    hs::SystemConfig cfg;
    cfg.disk.geometry.diameterInches = 2.6;
    cfg.disk.geometry.platters = 1;
    cfg.disk.tech = {500e3, 60e3};
    cfg.disk.rpm = 24534.0;
    cfg.disk.rpmChangeSecPerKrpm = 0.02;
    cfg.disks = 1;
    return cfg;
}

std::vector<hs::IoRequest>
fixedWorkload(std::size_t n, std::int64_t space, double rate)
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

/// Strict equality of every deterministic co-sim result field.
void
expectSameResult(const hd::CoSimResult& a, const hd::CoSimResult& b)
{
    EXPECT_EQ(a.metrics.count(), b.metrics.count());
    EXPECT_EQ(a.metrics.meanMs(), b.metrics.meanMs());
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

void
expectSameFleetResult(const hf::FleetResult& a, const hf::FleetResult& b)
{
    EXPECT_EQ(a.metrics.count(), b.metrics.count());
    EXPECT_EQ(a.meanLatencyMs, b.meanLatencyMs);
    EXPECT_EQ(a.p95LatencyMs, b.p95LatencyMs);
    EXPECT_EQ(a.maxDriveTempC, b.maxDriveTempC);
    EXPECT_EQ(a.gateEvents, b.gateEvents);
    EXPECT_EQ(a.speedChanges, b.speedChanges);
    EXPECT_EQ(a.gatedSec, b.gatedSec);
    EXPECT_EQ(a.simulatedSec, b.simulatedSec);
    EXPECT_EQ(a.epochs, b.epochs);
    EXPECT_EQ(a.shards, b.shards);
    ASSERT_EQ(a.chassis.size(), b.chassis.size());
    for (std::size_t i = 0; i < a.chassis.size(); ++i) {
        EXPECT_EQ(a.chassis[i].peakDriveTempC, b.chassis[i].peakDriveTempC);
        EXPECT_EQ(a.chassis[i].gateEvents, b.chassis[i].gateEvents);
    }
}

fs::path
scratchDir(const std::string& name)
{
    const fs::path dir = fs::temp_directory_path() / name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

std::vector<std::uint8_t>
readFileBytes(const fs::path& path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

/// Checkpoint files in @p dir, sorted by index.
std::vector<fs::path>
checkpointFiles(const fs::path& dir)
{
    std::vector<fs::path> files;
    for (const auto& entry : fs::directory_iterator(dir))
        files.push_back(entry.path());
    std::sort(files.begin(), files.end());
    return files;
}

/// Serialized saveSections() bytes of a finished engine.
std::vector<std::uint8_t>
endStateBytes(const hd::CoSimEngine& engine)
{
    hsnap::CheckpointWriter out(0);
    engine.saveSections(out);
    return out.serialize();
}

hsnap::CheckpointPolicy
policyFor(const fs::path& dir, double every_sec,
          std::uint64_t every_epochs = 0)
{
    hsnap::CheckpointPolicy policy;
    policy.directory = dir.string();
    policy.everySec = every_sec;
    policy.everyEpochs = every_epochs;
    policy.retain = 1000; // keep everything: tests pick mid-run files
    return policy;
}

/// Run checkpoint → resume → completion and require bit-identity with
/// the uninterrupted run, including the checkpoints the resumed run
/// writes after the resume point.
void
checkResumeBitIdentity(const hd::CoSimConfig& cfg, const std::string& tag)
{
    const auto workload = fixedWorkload(
        400, hs::StorageSystem(cfg.system).logicalSectors(), 100.0);

    const auto dir_a = scratchDir("hddtherm-snap-resume-" + tag + "-a");
    hd::CoSimEngine full(cfg);
    full.enableCheckpoints(policyFor(dir_a, 1.0));
    full.start(workload);
    full.advanceToCompletion();
    const auto files_a = checkpointFiles(dir_a);
    ASSERT_GE(files_a.size(), 2u) << "cadence produced too few checkpoints "
                                     "for a mid-run resume";
    const fs::path mid = files_a[files_a.size() / 2];

    const auto dir_b = scratchDir("hddtherm-snap-resume-" + tag + "-b");
    hd::CoSimEngine resumed(cfg);
    resumed.enableCheckpoints(policyFor(dir_b, 1.0));
    resumed.restoreFromCheckpoint(mid.string(), workload);
    resumed.advanceToCompletion();

    expectSameResult(full.result(), resumed.result());
    EXPECT_EQ(endStateBytes(full), endStateBytes(resumed));
    // Checkpoints written after the resume point must be byte-identical
    // to the uninterrupted run's files of the same index.
    const auto files_b = checkpointFiles(dir_b);
    EXPECT_GE(files_b.size(), 1u);
    for (const auto& file : files_b) {
        const fs::path original = dir_a / file.filename();
        ASSERT_TRUE(fs::exists(original)) << file.filename();
        EXPECT_EQ(readFileBytes(file), readFileBytes(original))
            << file.filename();
    }
    fs::remove_all(dir_a);
    fs::remove_all(dir_b);
}

} // namespace

TEST(SnapResume, CheckpointingIsAPureObserver)
{
    hd::CoSimConfig cfg;
    cfg.system = hotDrive();
    cfg.policy = hd::DtmPolicy::GateRequests;
    const auto workload = fixedWorkload(
        300, hs::StorageSystem(cfg.system).logicalSectors(), 100.0);

    hd::CoSimEngine bare(cfg);
    bare.start(workload);
    bare.advanceToCompletion();

    const auto dir = scratchDir("hddtherm-snap-resume-observer");
    hd::CoSimEngine checkpointed(cfg);
    checkpointed.enableCheckpoints(policyFor(dir, 0.5));
    checkpointed.start(workload);
    checkpointed.advanceToCompletion();

    expectSameResult(bare.result(), checkpointed.result());
    fs::remove_all(dir);
}

TEST(SnapResume, FaultFreeGateRunResumesBitIdentically)
{
    hd::CoSimConfig cfg;
    cfg.system = hotDrive();
    cfg.policy = hd::DtmPolicy::GateRequests;
    checkResumeBitIdentity(cfg, "gate");
}

TEST(SnapResume, FaultedGovernorRunResumesBitIdentically)
{
    hd::CoSimConfig cfg;
    cfg.system = hotDrive();
    cfg.policy = hd::DtmPolicy::GovernSpeed;
    cfg.rpmLadder = {15020.0, 18000.0, 21000.0, 24534.0};
    // Sensor noise exercises the fault player's RNG stream and the
    // dropout window exercises the fail-safe path across a resume.
    cfg.faults = hfault::FaultSchedule(
        {
            {0.5, hfault::FaultKind::SensorNoise, 0.3, 3.0, -1},
            {1.2, hfault::FaultKind::SensorDropout, 0.0, 1.0, -1},
            {2.0, hfault::FaultKind::AmbientSpike, 4.0, 2.0, -1},
        },
        0x5eedu);
    checkResumeBitIdentity(cfg, "governor");
}

TEST(SnapResume, RejectsWorkloadFingerprintMismatch)
{
    hd::CoSimConfig cfg;
    cfg.system = hotDrive();
    cfg.policy = hd::DtmPolicy::GateRequests;
    const auto workload = fixedWorkload(
        200, hs::StorageSystem(cfg.system).logicalSectors(), 100.0);

    const auto dir = scratchDir("hddtherm-snap-resume-fingerprint");
    hd::CoSimEngine engine(cfg);
    engine.enableCheckpoints(policyFor(dir, 1e9));
    engine.start(workload);
    engine.advanceTo(1.0);
    const auto path = engine.writeCheckpoint();

    // Same length, one request nudged: the fingerprint must catch it.
    auto tampered = workload;
    tampered[42].lba += 64;
    hd::CoSimEngine fresh(cfg);
    EXPECT_THROW(fresh.restoreFromCheckpoint(path, tampered),
                 hu::ModelError);

    // Wrong length fails too.
    auto shorter = workload;
    shorter.pop_back();
    hd::CoSimEngine fresh2(cfg);
    EXPECT_THROW(fresh2.restoreFromCheckpoint(path, shorter),
                 hu::ModelError);

    // The pristine workload restores fine.
    hd::CoSimEngine fresh3(cfg);
    fresh3.restoreFromCheckpoint(path, workload);
    fresh3.advanceToCompletion();
    EXPECT_TRUE(fresh3.finished());
    fs::remove_all(dir);
}

TEST(SnapResume, RejectsConfigHashMismatch)
{
    hd::CoSimConfig cfg;
    cfg.system = hotDrive();
    cfg.policy = hd::DtmPolicy::GateRequests;
    const auto workload = fixedWorkload(
        100, hs::StorageSystem(cfg.system).logicalSectors(), 100.0);

    const auto dir = scratchDir("hddtherm-snap-resume-confighash");
    hd::CoSimEngine engine(cfg);
    engine.enableCheckpoints(policyFor(dir, 1e9));
    engine.start(workload);
    engine.advanceTo(0.5);
    const auto path = engine.writeCheckpoint();

    auto other = cfg;
    other.policy = hd::DtmPolicy::None;
    hd::CoSimEngine fresh(other);
    EXPECT_THROW(fresh.restoreFromCheckpoint(path, workload),
                 hu::ModelError);
    fs::remove_all(dir);
}

TEST(SnapResume, FleetResumesBitIdenticallyAcrossThreadCounts)
{
    hf::FleetConfig cfg;
    cfg.racks = 1;
    cfg.rack.chassisCount = 2;
    cfg.chassis.bays = 3;
    cfg.bay.system = hotDrive();
    cfg.bay.policy = hd::DtmPolicy::GateRequests;
    cfg.workload.requests = 150;
    cfg.workload.arrivalRatePerSec = 100.0;
    cfg.epochSec = 0.25;
    cfg.maxSimulatedSec = 600.0;
    cfg.seed = 7;

    const auto dir = scratchDir("hddtherm-snap-resume-fleet");
    hf::FleetSimulation fleet(cfg);
    const auto ckpt = policyFor(dir, 0.0, 20);
    const auto full = fleet.run(2, nullptr, &ckpt);

    const auto files = checkpointFiles(dir);
    ASSERT_GE(files.size(), 2u);
    const auto mid = files[files.size() / 2];
    for (const int threads : {1, 4}) {
        const auto resumed = fleet.resume(mid.string(), threads);
        expectSameFleetResult(full, resumed);
    }
    fs::remove_all(dir);
}

TEST(KernelSnapshot, UntaggedPendingEventsBlockSave)
{
    // A closure has no record a checkpoint could rebuild it from, so a
    // pending one blocks saving until it has fired.
    he::SimKernel kernel;
    kernel.schedule(1.0, [] {});
    hsnap::StateWriter w("engine.kernel");
    EXPECT_THROW(kernel.saveState(w), hu::ModelError);
    // Once the closure fires the kernel is snapshottable again.
    kernel.runAll();
    hsnap::StateWriter w2("engine.kernel");
    EXPECT_NO_THROW(kernel.saveState(w2));
}

TEST(KernelSnapshot, UnnamedPeriodicTasksAreRejectedUpFront)
{
    // A task's kind is its checkpoint identity: arming a kind no handler
    // was registered for fails at once, so an unrestorable task never
    // sneaks into a run.  A closure task is legal but blocks saving
    // while it is alive.
    he::SimKernel kernel;
    EXPECT_THROW(kernel.schedulePeriodic(he::SimKernel::kDefaultDomain,
                                         1.0, std::uint32_t(77)),
                 hu::ModelError);
    int beats = 0;
    kernel.schedulePeriodic(he::SimKernel::kDefaultDomain, 1.0,
                            [&beats] { return ++beats < 2; });
    hsnap::StateWriter w("engine.kernel");
    EXPECT_THROW(kernel.saveState(w), hu::ModelError);
    kernel.runAll();
    EXPECT_EQ(beats, 2);
    hsnap::StateWriter w2("engine.kernel");
    EXPECT_NO_THROW(kernel.saveState(w2));
}

TEST(KernelSnapshot, RoundTripsTaggedEventsAndNamedTasks)
{
    // Events and tasks of registered kinds round-trip with no resolver:
    // the restored kernel's own registrations dispatch them.
    constexpr std::uint32_t kTagged = 100;
    constexpr std::uint32_t kBeat = 101;
    const auto build = [&](he::SimKernel& kernel,
                           std::vector<std::string>& log) {
        const auto dom = kernel.registerDomain("test", -1);
        kernel.registerHandler(kTagged, 3, [&log](std::uint64_t payload) {
            log.push_back("tagged" + std::to_string(payload));
        });
        kernel.registerTask(kBeat, [&log] {
            log.push_back("beat@" + std::to_string(log.size()));
            return log.size() < 6;
        });
        return dom;
    };

    he::SimKernel a;
    std::vector<std::string> log_a;
    const auto dom = build(a, log_a);
    a.schedule(2.5, dom, kTagged, 3, 5);
    a.schedulePeriodic(dom, 1.0, kBeat);
    hsnap::StateWriter saved("engine.kernel");
    a.saveState(saved);
    a.runAll();

    he::SimKernel b;
    std::vector<std::string> log_b;
    build(b, log_b);
    const auto buf = saved.buffer();
    hsnap::StateReader r("engine.kernel", buf.data(), buf.size());
    b.loadState(r);
    b.runAll();

    EXPECT_EQ(log_a, log_b);
    EXPECT_NE(std::find(log_a.begin(), log_a.end(), "tagged5"),
              log_a.end());
    EXPECT_EQ(a.now(), b.now());
}

namespace {

/// One pending-event record of a saved kernel section.
struct EventRecord
{
    double when;
    std::uint64_t key;
    std::uint32_t kind;
    std::uint32_t aux;
    std::uint64_t payload;
};
static_assert(sizeof(EventRecord) == 32);

/**
 * Copy of @p in whose "engine.kernel" section has its event records
 * rewritten by @p patch, returned as container bytes.  The event blob is
 * the section's last field, so the records are its last bytes (copied
 * as structs: the blob is little-endian, as the test hosts are).
 */
std::vector<std::uint8_t>
patchKernelEvents(const hsnap::CheckpointReader& in,
                  const std::function<void(std::vector<EventRecord>&)>&
                      patch)
{
    hsnap::CheckpointWriter out(in.configHash());
    for (const auto& name : in.sectionNames()) {
        auto payload = in.sectionBytes(name);
        if (name == "engine.kernel") {
            auto r = in.section(name);
            hsnap::StateReader::Field f;
            std::uint64_t count = 0;
            while (r.next(f)) {
                if (f.name == "kernel.events")
                    count = f.u;
            }
            std::vector<EventRecord> events(count);
            const std::size_t bytes = count * sizeof(EventRecord);
            EXPECT_LE(bytes, payload.size());
            std::uint8_t* tail = payload.data() + payload.size() - bytes;
            std::memcpy(events.data(), tail, bytes);
            patch(events);
            std::memcpy(tail, events.data(), bytes);
        }
        out.addSection(name, std::move(payload));
    }
    return out.serialize();
}

/// Mid-run checkpoint of a two-disk RAID-0 co-simulation, written to
/// and read back from disk, plus what restoring it needs.
struct DiskCheckpoint
{
    hd::CoSimConfig cfg;
    std::vector<hs::IoRequest> workload;
    std::vector<std::uint8_t> bytes;

    DiskCheckpoint()
    {
        cfg.system = hotDrive();
        cfg.system.disks = 2;
        cfg.system.raid = hs::RaidLevel::Raid0;
        workload = fixedWorkload(
            400, hs::StorageSystem(cfg.system).logicalSectors(), 200.0);
        hd::CoSimEngine engine(cfg);
        engine.start(workload);
        // Stop while a disk is serving, so a finish event is pending.
        const auto serving = [&engine] {
            return !engine.system().disk(0).idle() ||
                   !engine.system().disk(1).idle();
        };
        for (double t = 0.5; !serving() && t < 2.0; t += 1e-4)
            engine.advanceTo(t);
        hsnap::CheckpointWriter out(0);
        engine.saveSections(out);
        const auto dir =
            scratchDir(std::string("hddtherm-snap-corrupt-") +
                       ::testing::UnitTest::GetInstance()
                           ->current_test_info()
                           ->name());
        const auto path = (dir / "mid.hdtsnap").string();
        out.writeFile(path);
        bytes = readFileBytes(path);
        fs::remove_all(dir);
    }

    /// Restore @p container into a fresh engine.
    void restore(std::vector<std::uint8_t> container) const
    {
        const hsnap::CheckpointReader in("patched", std::move(container));
        hd::CoSimEngine engine(cfg);
        engine.loadSections(in, workload);
    }

    /// Restore with @p patch applied to the first record of @p kind.
    void restoreWith(std::uint32_t kind,
                     const std::function<void(EventRecord&)>& patch) const
    {
        const hsnap::CheckpointReader in("off disk", bytes);
        restore(patchKernelEvents(in, [&](std::vector<EventRecord>& ev) {
            const auto it =
                std::find_if(ev.begin(), ev.end(), [&](const auto& e) {
                    return e.kind == kind;
                });
            ASSERT_NE(it, ev.end()) << "no pending event of kind " << kind;
            patch(*it);
        }));
    }
};

} // namespace

TEST(SnapCorruptRestore, UnpatchedRecordsRestore)
{
    const DiskCheckpoint ckpt;
    const hsnap::CheckpointReader in("off disk", ckpt.bytes);
    EXPECT_NO_THROW(ckpt.restore(
        patchKernelEvents(in, [](std::vector<EventRecord>&) {})));
}

TEST(SnapCorruptRestore, RejectsKindWithoutHandler)
{
    const DiskCheckpoint ckpt;
    EXPECT_THROW(ckpt.restoreWith(hsnap::kEvtArrival,
                                  [](EventRecord& e) { e.kind = 77; }),
                 hu::ModelError);
    // A closure has no handler either: closures are never saved.
    EXPECT_THROW(ckpt.restoreWith(hsnap::kEvtArrival,
                                  [](EventRecord& e) {
                                      e.kind = hsnap::kEvtClosure;
                                      e.aux = 0;
                                      e.payload = 0;
                                  }),
                 hu::ModelError);
}

TEST(SnapCorruptRestore, RejectsDiskAuxPastTheDiskCount)
{
    const DiskCheckpoint ckpt;
    EXPECT_THROW(ckpt.restoreWith(hsnap::kEvtDiskFinish,
                                  [](EventRecord& e) { e.aux = 2; }),
                 hu::ModelError);
}

TEST(SnapCorruptRestore, RejectsArrivalSlotOutsideTheTable)
{
    const DiskCheckpoint ckpt;
    EXPECT_THROW(ckpt.restoreWith(hsnap::kEvtArrival,
                                  [](EventRecord& e) {
                                      e.payload = 1u << 20;
                                  }),
                 hu::ModelError);
}

TEST(SnapCorruptRestore, RejectsPeriodicAuxOutsideTheTaskTable)
{
    const DiskCheckpoint ckpt;
    EXPECT_THROW(ckpt.restoreWith(hsnap::kEvtPeriodic,
                                  [](EventRecord& e) { e.aux = 99; }),
                 hu::ModelError);
}
