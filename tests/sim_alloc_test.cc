/**
 * @file
 * Allocation gate for the storage path: replaying a trace through
 * StorageSystem::run, or submit()ting it and running, must not touch the
 * heap per request.
 *
 * Each case replays an 8 000-request and a 2 000-request trace on fresh
 * systems and compares the allocations made inside run().  Per-run
 * setup (the arrival feed's order vector, table growth up to the live
 * population) is about the same for both, so the difference
 * is what the extra 6 000 requests cost: it must stay within a small
 * constant, i.e. zero per request.
 *
 * This binary replaces the global allocation functions with counting
 * ones, which is why it is an executable of its own: no other suite pays
 * for (or is perturbed by) the hook.
 */
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "sim/storage_system.h"

namespace hs = hddtherm::sim;

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

void*
countedAlloc(std::size_t size)
{
    if (g_counting.load(std::memory_order_relaxed))
        g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

/// Heap allocations made while running @p body.
template <class F>
std::uint64_t
allocationsDuring(F&& body)
{
    const std::uint64_t before = g_allocations.load();
    g_counting.store(true);
    body();
    g_counting.store(false);
    return g_allocations.load() - before;
}

struct AllocCase
{
    const char* name;
    hs::RaidLevel raid;
    int disks;
    int failed;          ///< Member failed before replay (-1 = healthy).
    double readFraction; ///< Share of reads in the trace.
};

hs::SystemConfig
systemConfig(const AllocCase& c)
{
    hs::SystemConfig cfg;
    cfg.disk.geometry.diameterInches = 2.6;
    cfg.disk.tech = {400e3, 30e3};
    cfg.disk.rpm = 10000.0;
    cfg.disks = c.disks;
    cfg.raid = c.raid;
    return cfg;
}

/// A Poisson trace at a load the array keeps up with, so the live
/// frontier (queues, in-flight tables) stays bounded as the trace grows.
std::vector<hs::IoRequest>
poissonTrace(const AllocCase& c, std::int64_t capacity, std::size_t n)
{
    std::mt19937_64 rng(0xA110C);
    std::exponential_distribution<double> gap(40.0);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    std::vector<hs::IoRequest> out;
    double t = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        t += gap(rng);
        hs::IoRequest r;
        r.id = i + 1;
        r.arrival = t;
        r.sectors = 1 + int(rng() % 48);
        r.lba = std::int64_t(rng() % std::uint64_t(capacity - r.sectors));
        r.device = c.raid == hs::RaidLevel::None ? int(rng() % 3) : 0;
        r.type = unit(rng) < c.readFraction ? hs::IoType::Read
                                            : hs::IoType::Write;
        out.push_back(r);
    }
    return out;
}

/// Allocations inside run() for an @p n-request trace on a fresh system.
std::uint64_t
runAllocations(const AllocCase& c, std::size_t n)
{
    hs::StorageSystem sys(systemConfig(c));
    if (c.failed >= 0)
        sys.failDisk(c.failed);
    const auto trace = poissonTrace(c, sys.logicalSectors(), n);
    std::uint64_t completed = 0;
    const auto allocs = allocationsDuring(
        [&] { completed = sys.run(trace).count(); });
    EXPECT_EQ(completed, n);
    return allocs;
}

/// Allocations for submit()ting an @p n-request trace, then running it,
/// on a fresh system.
std::uint64_t
submitAllocations(const AllocCase& c, std::size_t n)
{
    hs::StorageSystem sys(systemConfig(c));
    if (c.failed >= 0)
        sys.failDisk(c.failed);
    const auto trace = poissonTrace(c, sys.logicalSectors(), n);
    const auto allocs = allocationsDuring([&] {
        for (const auto& r : trace)
            sys.submit(r);
        sys.runAll();
    });
    EXPECT_EQ(sys.metrics().count(), n);
    return allocs;
}

} // namespace

// The aligned forms keep their library defaults; nothing here allocates
// over-aligned types.
void*
operator new(std::size_t size)
{
    return countedAlloc(size);
}

void*
operator new[](std::size_t size)
{
    return countedAlloc(size);
}

void
operator delete(void* p) noexcept
{
    std::free(p);
}

void
operator delete[](void* p) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, std::size_t) noexcept
{
    std::free(p);
}

TEST(SimAlloc, CounterSeesAllocations)
{
    // Guard against a hook that silently counts nothing.
    const auto n = allocationsDuring([] {
        auto* p = new double[16];
        delete[] p;
    });
    EXPECT_EQ(n, 1u);
}

TEST(SimAlloc, ReplayAllocatesNothingPerRequest)
{
    const AllocCase cases[] = {
        {"JBOD reads", hs::RaidLevel::None, 3, -1, 0.9},
        {"JBOD writes", hs::RaidLevel::None, 3, -1, 0.1},
        {"RAID-5 reads", hs::RaidLevel::Raid5, 4, -1, 0.9},
        {"RAID-5 writes", hs::RaidLevel::Raid5, 4, -1, 0.1},
        {"RAID-5 degraded", hs::RaidLevel::Raid5, 4, 1, 0.5},
    };
    for (const auto& c : cases) {
        SCOPED_TRACE(c.name);
        const auto small = runAllocations(c, 2000);
        const auto large = runAllocations(c, 8000);
        EXPECT_LE(large, small + 32)
            << "2000 requests: " << small << " allocations, 8000: "
            << large;
    }
}

TEST(SimAlloc, SubmitAllocatesNothingPerRequest)
{
    // Every submitted arrival waits in a recycled slot, so eager
    // submission grows tables (logarithmically) but allocates nothing
    // per request.
    const AllocCase cases[] = {
        {"JBOD reads", hs::RaidLevel::None, 3, -1, 0.9},
        {"RAID-5 writes", hs::RaidLevel::Raid5, 4, -1, 0.1},
    };
    for (const auto& c : cases) {
        SCOPED_TRACE(c.name);
        const auto small = submitAllocations(c, 2000);
        const auto large = submitAllocations(c, 8000);
        EXPECT_LE(large, small + 32)
            << "2000 requests: " << small << " allocations, 8000: "
            << large;
    }
}
