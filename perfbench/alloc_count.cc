#include "alloc_count.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench {
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

void*
countedAlignedAlloc(std::size_t size, std::align_val_t align)
{
    if (g_counting.load(std::memory_order_relaxed))
        g_allocations.fetch_add(1, std::memory_order_relaxed);
    const auto a = static_cast<std::size_t>(align);
    // aligned_alloc needs a size that is a multiple of the alignment.
    const std::size_t rounded = ((size ? size : 1) + a - 1) / a * a;
    if (void* p = std::aligned_alloc(a, rounded))
        return p;
    throw std::bad_alloc();
}

} // namespace

void
setAllocCounting(bool on)
{
    g_counting.store(on, std::memory_order_relaxed);
}

std::uint64_t
allocationCount()
{
    return g_allocations.load(std::memory_order_relaxed);
}

} // namespace perfbench

// Replacements of the global allocation functions.  The nothrow forms
// of the default library forward to these; every delete form frees
// with std::free, which matches both malloc and aligned_alloc.

void*
operator new(std::size_t size)
{
    return perfbench::countedAlloc(size);
}

void*
operator new[](std::size_t size)
{
    return perfbench::countedAlloc(size);
}

void*
operator new(std::size_t size, std::align_val_t align)
{
    return perfbench::countedAlignedAlloc(size, align);
}

void*
operator new[](std::size_t size, std::align_val_t align)
{
    return perfbench::countedAlignedAlloc(size, align);
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

void
operator delete(void* p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
