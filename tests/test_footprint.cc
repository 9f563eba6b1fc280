/**
 * @file
 * Per-connection footprint: size budgets and cache-object conservation.
 *
 * A parked connection holds one Socket (TCB arena), one timer node on
 * its core's wheel, a share of an ehash bucket, cache-model entries for
 * its TCB and lock lines, and one client-side HttpLoad::Conn. At a
 * hundred thousand connections these sizes are the simulator's memory,
 * so they are pinned here: a field added without repacking fails this
 * test rather than silently growing every row's peak RSS.
 *
 * The second half checks that every cache object a connection takes is
 * returned: a drained run ends with exactly the objects it booted with,
 * plus the lines of buckets that resized tables grew.
 */

#include <gtest/gtest.h>

#include "app/http_load.hh"
#include "cpu/cache_model.hh"
#include "harness/experiment.hh"
#include "sync/spinlock.hh"
#include "tcp/established_table.hh"
#include "tcp/socket.hh"
#include "timerwheel/timer_wheel.hh"

namespace fsim
{
namespace
{

TEST(Footprint, ParkedConnectionStructuresFitTheirBudgets)
{
    // 216 bytes today: listen-only state is behind one pointer.
    EXPECT_LE(sizeof(Socket), 224u);
    // 64 bytes: the cache model and costs live on the class row.
    EXPECT_LE(sizeof(SimSpinLock), 64u);
    // 88 bytes: chain head/tail, a slim lock and a 32-bit line id.
    EXPECT_LE(sizeof(EstablishedTable::Bucket), 88u);
    // 96 bytes: a 48-byte capture budget plus the slot links.
    EXPECT_LE(sizeof(TimerWheel::Node), 96u);
    EXPECT_LE(sizeof(HttpLoad::Conn), 64u);
    // The lock's line id and the cache model's owners are narrow.
    EXPECT_EQ(sizeof(CacheObjId), 4u);
}

TEST(Footprint, CacheModelCountsLiveObjects)
{
    CacheModel cm(2, 400);
    EXPECT_EQ(cm.liveObjects(), 0u);
    CacheObjId a = cm.newObject();
    CacheObjId b = cm.newObject();
    EXPECT_EQ(cm.liveObjects(), 2u);
    cm.freeObject(a);
    EXPECT_EQ(cm.liveObjects(), 1u);
    EXPECT_EQ(cm.newObject(), a) << "freed ids are recycled first";
    cm.freeObject(b);
    cm.freeObject(a);
    EXPECT_EQ(cm.liveObjects(), 0u);
}

/** Run a bounded nginx load on @p kc until the event queue drains. */
class DrainedRunCacheObjects : public ::testing::TestWithParam<int>
{
  public:
    static KernelConfig
    flavor()
    {
        switch (GetParam()) {
          case 0:
            return KernelConfig::base2632();
          case 1:
            return KernelConfig::linux313();
          default:
            return KernelConfig::fastsocket();
        }
    }
};

TEST_P(DrainedRunCacheObjects, ReturnToPostBootCount)
{
    ExperimentConfig cfg;
    cfg.machine.cores = 2;
    cfg.machine.kernel = flavor();
    // Tiny per-core tables, so the Fastsocket run resizes them.
    cfg.machine.kernel.localEhashBuckets = 4;
    cfg.concurrencyPerCore = 25;
    cfg.maxConns = 600;
    Testbed bed(cfg);
    KernelStack &k = bed.machine().kernel();
    const std::size_t booted = bed.machine().cache().liveObjects();
    const std::uint64_t bootBuckets = k.ehashBuckets();

    bed.startLoad();
    bed.eventQueue().runAll();   // bounded: drains to quiescence

    ASSERT_EQ(bed.load().completed(), 600u);
    ASSERT_EQ(bed.load().inFlight(), 0u);
    EXPECT_EQ(k.stats().socketsCreated - k.stats().socketsDestroyed,
              k.liveSockets());
    if (k.config().localEstablished) {
        EXPECT_GT(k.ehashResizes(), 0u) << "the run must resize";
    }
    // Every bucket added by a resize holds two objects: its own line
    // and its lock's.
    const std::uint64_t grown = 2 * (k.ehashBuckets() - bootBuckets);
    EXPECT_EQ(bed.machine().cache().liveObjects(), booted + grown)
        << "cache objects leaked by " << bed.machine().cache().liveObjects()
        << " - " << booted << " - " << grown;
}

INSTANTIATE_TEST_SUITE_P(Kernels, DrainedRunCacheObjects,
                         ::testing::Values(0, 1, 2));

} // namespace
} // namespace fsim
