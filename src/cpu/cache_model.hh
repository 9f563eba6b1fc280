/**
 * @file
 * Ownership-based cache/coherence model.
 *
 * Every shared kernel object that matters for connection locality (socket
 * TCBs, table buckets, lock words, epoll instances) registers a cache
 * object id. Accessing an object from a core other than its current owner
 * costs a remote-transfer penalty and counts as an L3 miss; write accesses
 * migrate ownership. Useful work additionally charges implicit always-local
 * accesses so that the reported L3 miss *rate* stays in a realistic band
 * (the paper's Figure 5(a) reports 5-13%).
 */

#ifndef FSIM_CPU_CACHE_MODEL_HH
#define FSIM_CPU_CACHE_MODEL_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace fsim
{

class Tracer;

/** Cache object id (a socket TCB, a bucket line, a lock word). */
using CacheObjId = std::uint32_t;

/** "No cache object" (e.g.\ a lock bound without a cache model). */
constexpr CacheObjId kNoCacheObj = ~CacheObjId{0};

/** Per-machine cache coherence model and L3 statistics. */
class CacheModel
{
  public:
    /**
     * @param n_cores Number of cores.
     * @param miss_penalty Cycles per remote-owned access within a NUMA
     *        node (shared L3).
     * @param node_size Cores per NUMA node (0 = single node). The
     *        paper's testbed is 2 x 12-core Xeon E5-2697v2, so lines
     *        crossing the socket boundary pay @p remote_penalty instead.
     * @param remote_penalty Cycles per cross-node transfer.
     */
    explicit CacheModel(int n_cores, Tick miss_penalty,
                        int node_size = 0, Tick remote_penalty = 0);

    /** Register a new cache object (e.g.\ a socket). @return its id. */
    CacheObjId newObject();

    /**
     * Recycle an object id once the owning structure is destroyed. A
     * recycled id starts over with no owner, exactly like a fresh one,
     * so reuse order never changes what an access costs.
     */
    void freeObject(CacheObjId id);

    /** Objects registered and not yet freed (leak checks). */
    std::size_t liveObjects() const
    {
        return owner_.size() - freeIds_.size();
    }

    /**
     * Access @p obj from core @p c.
     *
     * @param write Whether ownership should migrate to @p c.
     * @param lines Cache lines the object spans (a TCB is several).
     * @return extra cycles caused by a remote transfer (0 on a hit).
     */
    Tick access(CoreId c, CacheObjId obj, bool write = true,
                int lines = 1);

    /**
     * Charge @p n implicit local accesses to core @p c. A configurable
     * background fraction of them miss (cold app/kernel working set),
     * which anchors the absolute L3 miss rate; connection locality then
     * moves the rate by the coherence misses it saves.
     */
    void noteLocalAccesses(CoreId c, std::uint64_t n);

    /** Set the background miss rate charged by noteLocalAccesses. */
    void setBackgroundMissRate(double rate) { bgMissRate_ = rate; }

    /** Attach the machine tracer: transfer penalties are then charged
     *  to the cache-stall phase of the accessing core. */
    void setTracer(Tracer *tracer) { tracer_ = tracer; }

    /** @name Statistics */
    /** @{ */
    std::uint64_t accesses(CoreId c) const { return accesses_[c]; }
    std::uint64_t misses(CoreId c) const { return misses_[c]; }
    std::uint64_t totalAccesses() const;
    std::uint64_t totalMisses() const;
    /** Machine-wide L3 miss rate over the whole run. */
    double missRate() const;
    /** @} */

    /** NUMA node of a core. */
    int node(CoreId c) const
    {
        return nodeSize_ > 0 ? c / nodeSize_ : 0;
    }

    int numCores() const { return static_cast<int>(accesses_.size()); }
    Tick missPenalty() const { return missPenalty_; }

  private:
    Tick missPenalty_;
    Tick remotePenalty_;
    int nodeSize_;
    double bgMissRate_ = 0.0;
    Tracer *tracer_ = nullptr;
    /** Owning core per object id (kInvalidCore = never touched); 16-bit
     *  because one entry exists per live socket, lock and bucket. */
    std::vector<std::int16_t> owner_;
    std::vector<CacheObjId> freeIds_;
    std::vector<double> bgAccum_;
    std::vector<std::uint64_t> accesses_;
    std::vector<std::uint64_t> misses_;
};

} // namespace fsim

#endif // FSIM_CPU_CACHE_MODEL_HH
