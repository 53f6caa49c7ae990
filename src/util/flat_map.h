/**
 * @file
 * Flat open-addressed map from a 64-bit key to a small value.
 *
 * Built for tables whose live population is small while the churn is
 * every request of a run (the storage controller's in-flight and
 * sub-request tables): the worst case for node-based containers, which
 * pay one allocation per insert.  Linear probing over one flat array
 * with Robin Hood placement and backward-shift deletion keeps insert,
 * find and erase allocation-free once the table has grown to the live
 * population.
 */
#ifndef HDDTHERM_UTIL_FLAT_MAP_H
#define HDDTHERM_UTIL_FLAT_MAP_H

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace hddtherm::util {

/// uint64 -> V map.  Keys must be unique; V must be copyable.
template <class V>
class FlatU64Map
{
  public:
    /// Insert @p value under @p key (which must not already be present).
    void insert(std::uint64_t key, const V& value)
    {
        if ((size_ + 1) * 10 >= slots_.size() * 7)
            grow();
        // Robin Hood placement: displace any resident closer to its home
        // than the incoming entry is to its own.  The resulting ordering
        // invariant (probe distances never drop along a cluster) is what
        // makes erase()'s stop-at-distance-zero backward shift correct.
        Slot incoming{key, value, true};
        std::size_t i = home(key);
        std::size_t dist = 0;
        while (slots_[i].used) {
            const std::size_t resident = probeDistance(i);
            if (resident < dist) {
                std::swap(incoming, slots_[i]);
                dist = resident;
            }
            i = next(i);
            ++dist;
        }
        slots_[i] = incoming;
        ++size_;
    }

    /// Value stored under @p key, or nullptr.
    const V* find(std::uint64_t key) const
    {
        if (slots_.empty())
            return nullptr;
        std::size_t i = home(key);
        while (slots_[i].used) {
            if (slots_[i].key == key)
                return &slots_[i].value;
            i = next(i);
        }
        return nullptr;
    }

    V* find(std::uint64_t key)
    {
        return const_cast<V*>(std::as_const(*this).find(key));
    }

    /// Remove @p key; returns false if it was not present.
    bool erase(std::uint64_t key)
    {
        if (slots_.empty())
            return false;
        std::size_t i = home(key);
        while (slots_[i].used && slots_[i].key != key)
            i = next(i);
        if (!slots_[i].used)
            return false;
        // Backward-shift deletion: pull the rest of the probe cluster
        // one slot back so lookups never need tombstones (which would
        // otherwise accumulate one per erase).
        std::size_t hole = i;
        for (std::size_t j = next(i); slots_[j].used; j = next(j)) {
            if (probeDistance(j) == 0)
                break;
            slots_[hole] = slots_[j];
            hole = j;
        }
        slots_[hole].used = false;
        --size_;
        return true;
    }

    /// Drop every entry, keeping the allocation.
    void clear()
    {
        for (auto& slot : slots_)
            slot.used = false;
        size_ = 0;
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /// Call @p f(key, value) for every entry, in unspecified order.
    template <class F>
    void forEach(F&& f) const
    {
        for (const auto& slot : slots_) {
            if (slot.used)
                f(slot.key, slot.value);
        }
    }

  private:
    struct Slot
    {
        std::uint64_t key = 0;
        V value{};
        bool used = false;
    };

    std::size_t home(std::uint64_t key) const
    {
        // Fibonacci hashing spreads monotonically assigned keys across
        // the (power-of-two) table.
        return std::size_t((key * 0x9E3779B97F4A7C15ull) >> 32) &
               (slots_.size() - 1);
    }

    std::size_t next(std::size_t i) const
    {
        return (i + 1) & (slots_.size() - 1);
    }

    std::size_t probeDistance(std::size_t i) const
    {
        return (i - home(slots_[i].key)) & (slots_.size() - 1);
    }

    void grow()
    {
        std::vector<Slot> old = std::move(slots_);
        slots_.assign(old.empty() ? 64 : old.size() * 2, Slot{});
        size_ = 0;
        for (const auto& slot : old) {
            if (slot.used)
                insert(slot.key, slot.value);
        }
    }

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
};

} // namespace hddtherm::util

#endif // HDDTHERM_UTIL_FLAT_MAP_H
