/**
 * @file
 * Differential property test: the slim SimSpinLock vs the frozen
 * per-instance-constant ReferenceSpinLock.
 *
 * Randomized multi-core acquisition streams (seeded by sim/rng so
 * failures replay exactly) drive both implementations in lockstep,
 * each side with its own LockRegistry and CacheModel. The streams mix
 * several lock classes (one bound without a cache model), several
 * instances per class, bursts from one core and cross-core handoffs,
 * near-simultaneous races and long idle gaps, and unrelated cache
 * traffic on the same model. Locks are also retired and rebound: the
 * slim side returns the retired lock's line to the cache model (so the
 * new lock reuses the id), the reference side leaks it, as the old
 * code did. After every acquisition both sides must agree on the end
 * tick, lastWait(), busyUntil() and lastHolder(); at the end on every
 * class row and on the cache model's access and miss counts.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cpu/cache_model.hh"
#include "reference_spinlock.hh"
#include "sim/rng.hh"
#include "sync/lock_registry.hh"
#include "sync/spinlock.hh"

namespace fsim
{
namespace
{

/** One lock class of the stream: name, costs, whether it has a line. */
struct ClassSpec
{
    const char *name;
    Tick base;
    Tick storm;
    bool cached;
};

constexpr ClassSpec kClasses[] = {
    {"slock", 40, 250, true},
    {"ehash.lock", 40, 250, true},
    {"dcache_lock", 60, 150, true},
    {"nocache", 40, 0, false},
};
constexpr std::size_t kPerClass = 4;

/** Everything one implementation needs; both sides are built alike. */
template <typename Lock>
struct Side
{
    Side(int cores, Tick miss)
        : cache(cores, miss, cores > 12 ? 12 : 0, miss * 2)
    {
        for (const ClassSpec &spec : kClasses) {
            LockClassStats *cls = locks.getClass(spec.name);
            for (std::size_t i = 0; i < kPerClass; ++i)
                bind(lockList.emplace_back(std::make_unique<Lock>()),
                     cls, spec);
        }
        for (int i = 0; i < 64; ++i)
            data.push_back(cache.newObject());
    }

    void
    bind(std::unique_ptr<Lock> &lock, LockClassStats *cls,
         const ClassSpec &spec)
    {
        lock->init(cls, spec.cached ? &cache : nullptr, spec.base,
                   spec.storm);
    }

    LockRegistry locks;
    CacheModel cache;
    std::vector<std::unique_ptr<Lock>> lockList;
    std::vector<CacheObjId> data;
};

class SpinLockDiff
    : public ::testing::TestWithParam<std::pair<int, std::uint64_t>>
{
};

TEST_P(SpinLockDiff, MatchesReference)
{
    const auto [cores, seed] = GetParam();
    const Tick miss = 400;
    Side<ReferenceSpinLock> ref(cores, miss);
    Side<SimSpinLock> cut(cores, miss);
    Rng rng(seed);

    std::vector<Tick> cursor(cores, 0);
    std::uint64_t contended = 0;
    constexpr int kOps = 200'000;
    for (int op = 0; op < kOps; ++op) {
        const std::uint64_t r = rng.range(1000);
        const std::size_t idx = rng.range(ref.lockList.size());
        const ClassSpec &spec = kClasses[idx / kPerClass];
        if (r < 2) {
            // Retire and rebind one lock (a socket destroyed and a new
            // one created in its arena slot).
            cut.lockList[idx]->releaseLine();
            cut.lockList[idx] = std::make_unique<SimSpinLock>();
            cut.bind(cut.lockList[idx], cut.locks.getClass(spec.name),
                     spec);
            ref.lockList[idx] = std::make_unique<ReferenceSpinLock>();
            ref.bind(ref.lockList[idx], ref.locks.getClass(spec.name),
                     spec);
            continue;
        }
        const CoreId c = static_cast<CoreId>(
            r < 300 ? rng.range(2) : rng.range(cores));
        if (r < 100) {
            // Unrelated traffic on the same cache model.
            const std::size_t d = rng.range(ref.data.size());
            const bool write = rng.range(2) == 0;
            ASSERT_EQ(ref.cache.access(c, ref.data[d], write),
                      cut.cache.access(c, cut.data[d], write));
            continue;
        }
        // Mostly short gaps (hot lock), sometimes a race backwards in
        // time (coarse-task cursor skew) or a long idle stretch.
        Tick &t = cursor[c];
        const std::uint64_t g = rng.range(100);
        if (g < 70)
            t += rng.range(400);
        else if (g < 90)
            t = t > 2000 ? t - rng.range(2000) : 0;
        else
            t += rng.range(1'000'000);
        const Tick hold = 20 + rng.range(1500);
        const Tick a = ref.lockList[idx]->runLocked(c, t, hold);
        const Tick b = cut.lockList[idx]->runLocked(c, t, hold);
        ASSERT_EQ(a, b) << "op " << op << " seed " << seed;
        ASSERT_EQ(ref.lockList[idx]->lastWait(),
                  cut.lockList[idx]->lastWait())
            << "op " << op << " seed " << seed;
        ASSERT_EQ(ref.lockList[idx]->busyUntil(),
                  cut.lockList[idx]->busyUntil());
        ASSERT_EQ(ref.lockList[idx]->lastHolder(),
                  cut.lockList[idx]->lastHolder());
        contended += cut.lockList[idx]->lastWait() > 0;
        if (rng.range(4) == 0)
            t = b;
    }

    for (const ClassSpec &spec : kClasses) {
        const LockClassStats *a = ref.locks.getClass(spec.name);
        const LockClassStats *b = cut.locks.getClass(spec.name);
        EXPECT_EQ(a->acquisitions, b->acquisitions) << spec.name;
        EXPECT_EQ(a->contentions, b->contentions) << spec.name;
        EXPECT_EQ(a->waitTicks, b->waitTicks) << spec.name;
        EXPECT_EQ(a->holdTicks, b->holdTicks) << spec.name;
        EXPECT_EQ(a->maxWaitTicks, b->maxWaitTicks) << spec.name;
    }
    EXPECT_EQ(ref.cache.totalAccesses(), cut.cache.totalAccesses());
    EXPECT_EQ(ref.cache.totalMisses(), cut.cache.totalMisses());
    // The slim side recycled every retired line; the reference leaked.
    EXPECT_LT(cut.cache.liveObjects(), ref.cache.liveObjects());
    // The streams must have exercised what they claim to.
    EXPECT_GT(contended, static_cast<std::uint64_t>(kOps) / 20);
    EXPECT_GT(cut.locks.getClass("slock")->contentions, 100u);
}

INSTANTIATE_TEST_SUITE_P(
    Streams, SpinLockDiff,
    ::testing::Values(std::make_pair(2, std::uint64_t{1}),
                      std::make_pair(4, std::uint64_t{2}),
                      std::make_pair(8, std::uint64_t{3}),
                      std::make_pair(24, std::uint64_t{4}),
                      std::make_pair(24, std::uint64_t{5})));

TEST(SpinLockBinding, RebindingAClassWithOtherConstantsIsFatal)
{
    LockRegistry reg;
    CacheModel cache(2, 400);
    LockClassStats *cls = reg.getClass("slock");
    SimSpinLock a, b, c, d;
    a.init(cls, &cache, 40, 250);
    b.init(cls, &cache, 40, 250);   // same constants: fine
    EXPECT_DEATH(c.init(cls, &cache, 41, 250), "bound again");
    EXPECT_DEATH(d.init(cls, nullptr, 40, 250), "bound again");
    CacheModel other(2, 400);
    EXPECT_DEATH(d.init(cls, &other, 40, 250), "slock");
}

TEST(SpinLockBinding, ReleasedLineIsRecycled)
{
    LockRegistry reg;
    CacheModel cache(2, 400);
    LockClassStats *cls = reg.getClass("x");
    SimSpinLock lock;
    lock.init(cls, &cache, 40, 250);
    EXPECT_EQ(cache.liveObjects(), 1u);
    lock.runLocked(1, 0, 10);
    lock.releaseLine();
    EXPECT_EQ(cache.liveObjects(), 0u);
    lock.releaseLine();   // idempotent
    EXPECT_EQ(cache.liveObjects(), 0u);

    // A lock bound after the release reuses the id and starts cold.
    SimSpinLock again;
    again.init(cls, &cache, 40, 250);
    EXPECT_EQ(cache.liveObjects(), 1u);
    const std::uint64_t misses = cache.totalMisses();
    again.runLocked(1, 1000, 10);
    EXPECT_EQ(cache.totalMisses(), misses + 1) << "recycled line is cold";
}

} // namespace
} // namespace fsim
