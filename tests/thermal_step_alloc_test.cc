/**
 * @file
 * Allocation gate for the DTM control tick: once warm, a tick of
 * setVcmDuty + setAmbient + advanceTo(t + 0.1 s) on a DriveThermalModel
 * must not touch the heap.
 *
 * This binary replaces the global allocation functions with counting
 * ones, which is why it is an executable of its own: no other suite pays
 * for (or is perturbed by) the hook.
 */
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "thermal/drive_thermal.h"

namespace ht = hddtherm::thermal;

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

ht::DriveThermalConfig
driveConfig()
{
    ht::DriveThermalConfig cfg;
    cfg.geometry.diameterInches = 2.6;
    cfg.geometry.platters = 1;
    cfg.rpm = 15020.0;
    return cfg;
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

TEST(ThermalStepAlloc, CounterSeesAllocations)
{
    // Guard against a hook that silently counts nothing.
    const auto n = allocationsDuring([] {
        auto* p = new double[16];
        delete[] p;
    });
    EXPECT_EQ(n, 1u);
}

TEST(ThermalStepAlloc, ControlTicksAllocateNothing)
{
    ht::DriveThermalModel model(driveConfig());
    double t = 0.1;
    model.setVcmDuty(1.0);
    model.setAmbient(28.0);
    model.advanceTo(t); // warm-up tick: sizes the factorization storage

    const auto n = allocationsDuring([&] {
        for (int i = 0; i < 10000; ++i) {
            model.setVcmDuty(i % 2 ? 0.8 : 0.2);
            model.setAmbient(28.0 + 3.0 * std::sin(0.001 * i));
            t += 0.1;
            model.advanceTo(t);
        }
    });
    EXPECT_EQ(n, 0u);
    EXPECT_TRUE(std::isfinite(model.airTempC()));
}

TEST(ThermalStepAlloc, FaultTicksAllocateNothing)
{
    // The faulted co-simulation re-applies the fault overrides every tick.
    // Rewriting unchanged conductances keeps the cached factorization, and
    // the re-factorization after a real change reuses its storage.
    ht::DriveThermalModel model(driveConfig());
    double t = 0.1;
    model.advanceTo(t);

    const auto n = allocationsDuring([&] {
        for (int i = 0; i < 10000; ++i) {
            model.setCoolingFaultScale(i < 5000 ? 1.0 : 0.6);
            model.setAmbientOffsetC(i < 5000 ? 0.0 : 2.0);
            model.setVcmDuty(i % 2 ? 0.8 : 0.2);
            t += 0.1;
            model.advanceTo(t);
        }
    });
    EXPECT_EQ(n, 0u);
}
