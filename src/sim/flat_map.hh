/**
 * @file
 * Open-addressing hash map with sticky storage for simulator hot paths.
 *
 * std::unordered_map allocates one node per element, which turns every
 * per-connection insert (established hash, TIME_WAIT index, load
 * generator state) into steady-state heap traffic. FlatMap stores keys
 * and values in flat arrays with linear probing. Erase uses backward
 * shift: later members of the probe cluster slide back into the hole,
 * so there are no tombstones, no purge rebuilds and no spare arrays to
 * rebuild into. Capacity only grows (at 3/4 load), so once the table
 * has reached its high-water capacity, insert/find/erase churn never
 * touches the allocator. The allocation-audit test enforces this end
 * to end.
 *
 * The slot index comes from a splitmix64 finalizer over Hash{}(key):
 * std::hash of an integer is the identity, and masking it directly
 * turns keys that differ only in high or clustered bits into long
 * probe chains.
 *
 * Pointer rule: a pointer returned by find() or insert() is valid only
 * until the next insert() or erase() of any key — growth reallocates,
 * and backward shift moves entries.
 *
 * Deliberately minimal: no iteration (nothing on the hot path iterates,
 * and iteration order would be a determinism hazard), keys and values
 * must be default-constructible and movable.
 */

#ifndef FSIM_SIM_FLAT_MAP_HH
#define FSIM_SIM_FLAT_MAP_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/logging.hh"

namespace fsim
{

/** Linear-probing hash map; capacity is sticky, always a power of 2. */
template <typename K, typename V, typename Hash = std::hash<K>,
          typename Eq = std::equal_to<K>>
class FlatMap
{
  public:
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    V *
    find(const K &key)
    {
        const std::size_t idx = locate(key);
        return idx == kNpos ? nullptr : &vals_[idx];
    }

    const V *
    find(const K &key) const
    {
        const std::size_t idx = locate(key);
        return idx == kNpos ? nullptr : &vals_[idx];
    }

    /**
     * Insert @p value under @p key.
     *
     * @return the stored value and whether it was inserted (false means
     *         the key already existed; the stored value is unchanged).
     */
    std::pair<V *, bool>
    insert(const K &key, V value)
    {
        // Keep the load under 3/4 so probes stay short.
        if (full_.empty() || (size_ + 1) * 4 >= full_.size() * 3)
            grow(full_.empty() ? kMinCapacity : full_.size() * 2);

        const std::size_t mask = full_.size() - 1;
        std::size_t idx = home(key, mask);
        while (full_[idx]) {
            if (Eq{}(keys_[idx], key))
                return {&vals_[idx], false};
            idx = (idx + 1) & mask;
        }
        full_[idx] = 1;
        keys_[idx] = key;
        vals_[idx] = std::move(value);
        ++size_;
        return {&vals_[idx], true};
    }

    /** @return true if the key existed and was removed. */
    bool
    erase(const K &key)
    {
        std::size_t hole = locate(key);
        if (hole == kNpos)
            return false;
        // Backward shift: walk the rest of the cluster and pull back
        // every entry whose home slot does not lie in (hole, j], so no
        // lookup ever has to step over an empty slot to reach its key.
        const std::size_t mask = full_.size() - 1;
        for (std::size_t j = (hole + 1) & mask; full_[j];
             j = (j + 1) & mask) {
            const std::size_t h = home(keys_[j], mask);
            if (((j - h) & mask) < ((j - hole) & mask))
                continue;
            keys_[hole] = std::move(keys_[j]);
            vals_[hole] = std::move(vals_[j]);
            hole = j;
        }
        full_[hole] = 0;
        keys_[hole] = K{};
        vals_[hole] = V{};
        --size_;
        return true;
    }

  private:
    static constexpr std::size_t kNpos = ~std::size_t{0};
    static constexpr std::size_t kMinCapacity = 16;

    static std::size_t
    home(const K &key, std::size_t mask)
    {
        // splitmix64 finalizer.
        std::uint64_t x = static_cast<std::uint64_t>(Hash{}(key));
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
        x ^= x >> 31;
        return static_cast<std::size_t>(x) & mask;
    }

    std::size_t
    locate(const K &key) const
    {
        if (full_.empty())
            return kNpos;
        const std::size_t mask = full_.size() - 1;
        std::size_t idx = home(key, mask);
        while (full_[idx]) {
            if (Eq{}(keys_[idx], key))
                return idx;
            idx = (idx + 1) & mask;
        }
        return kNpos;
    }

    void
    grow(std::size_t cap)
    {
        fsim_assert((cap & (cap - 1)) == 0 && cap > size_);
        std::vector<std::uint8_t> full(cap, 0);
        std::vector<K> keys(cap);
        std::vector<V> vals(cap);
        const std::size_t mask = cap - 1;
        for (std::size_t i = 0; i < full_.size(); ++i) {
            if (!full_[i])
                continue;
            std::size_t idx = home(keys_[i], mask);
            while (full[idx])
                idx = (idx + 1) & mask;
            full[idx] = 1;
            keys[idx] = std::move(keys_[i]);
            vals[idx] = std::move(vals_[i]);
        }
        full_.swap(full);
        keys_.swap(keys);
        vals_.swap(vals);
    }

    std::vector<std::uint8_t> full_;
    std::vector<K> keys_;
    std::vector<V> vals_;
    std::size_t size_ = 0;
};

} // namespace fsim

#endif // FSIM_SIM_FLAT_MAP_HH
