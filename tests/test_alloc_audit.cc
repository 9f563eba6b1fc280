/**
 * @file
 * Allocation audit: the event/packet/timer hot path must not touch the
 * heap in steady state.
 *
 * This binary overrides global operator new/delete to count every
 * allocation while an AllocAuditScope is armed (the counters live in
 * sim/alloc_audit). Two layers of contract:
 *
 *  1. The raw simulator substrate — EventQueue scheduling/dispatch,
 *     TimerWheel arm/mod/cancel/fire (long-horizon timers on fresh
 *     outer-level slots included), FlatMap insert/erase churn, CpuModel
 *     task posting — must make ZERO allocations once its slabs and
 *     rings are warm. This is the inline-capture budget (EventFn 56 B,
 *     Task 88 B, timer callbacks 32/64 B) plus slab recycling doing
 *     their job.
 *
 *  2. A steady-state --notrace nginx experiment (full kernel + app +
 *     load) must likewise run allocation-free between checkpoints once
 *     warmed up: connection churn recycles TCB slabs, timer nodes,
 *     event nodes and ring capacity instead of allocating.
 *
 *  3. With tracing on, the same run may allocate only the span log's
 *     record-arena chunks: no per-connection or per-span heap traffic.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "harness/experiment.hh"
#include "sim/alloc_audit.hh"
#include "sim/event_queue.hh"
#include "sim/flat_map.hh"
#include "sim/rng.hh"
#include "timerwheel/timer_wheel.hh"
#include "trace/conn_span.hh"
#include "trace/tracer.hh"

// ---------------------------------------------------------------------
// Global counting allocator hook. Forwarding to malloc keeps ASan's
// interception intact (it wraps malloc), so the audit composes with the
// sanitizer jobs.
// ---------------------------------------------------------------------

namespace
{

// Failure diagnostic: histogram of audited allocation sizes, dumped
// only when a test is about to fail. Sizes identify structures (8 B =
// a pointer vector's first growth, 2^n = vector doubling, etc.).
constexpr std::size_t kHistCap = 512;
std::size_t g_histSize[kHistCap];
std::uint64_t g_histCount[kHistCap];
std::size_t g_histUsed = 0;

void
recordSize(std::size_t n)
{
    for (std::size_t i = 0; i < g_histUsed; ++i)
        if (g_histSize[i] == n) { ++g_histCount[i]; return; }
    if (g_histUsed < kHistCap) {
        g_histSize[g_histUsed] = n;
        g_histCount[g_histUsed] = 1;
        ++g_histUsed;
    }
}

void
dumpHist(const char *tag)
{
    fprintf(stderr, "=== alloc histogram (%s) ===\n", tag);
    for (std::size_t i = 0; i < g_histUsed; ++i)
        fprintf(stderr, "  size %zu x %llu\n", g_histSize[i],
                (unsigned long long)g_histCount[i]);
    g_histUsed = 0;
}

void *
auditedAlloc(std::size_t n)
{
    fsim::AllocAudit::noteHooked();
    if (fsim::AllocAudit::armed())
        recordSize(n);
    fsim::AllocAudit::noteAlloc(n);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *
operator new(std::size_t n)
{
    return auditedAlloc(n);
}

void *
operator new[](std::size_t n)
{
    return auditedAlloc(n);
}

void
operator delete(void *p) noexcept
{
    fsim::AllocAudit::noteFree();
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    fsim::AllocAudit::noteFree();
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    fsim::AllocAudit::noteFree();
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    fsim::AllocAudit::noteFree();
    std::free(p);
}

namespace fsim
{
namespace
{

TEST(AllocAudit, HookIsLive)
{
    AllocAuditScope scope;
    delete new int(7);
    ASSERT_TRUE(AllocAudit::hooked());
    EXPECT_GE(AllocAudit::allocs(), 1u);
    EXPECT_GE(AllocAudit::frees(), 1u);
}

TEST(AllocAudit, EventQueueSteadyStateIsAllocationFree)
{
    EventQueue eq;
    Rng rng(42);
    // Warm the slab and ladder: pending population comparable to the
    // steady state we then audit.
    int live = 0;
    for (int i = 0; i < 20000; ++i) {
        eq.schedule(eq.now() + rng.range(500'000),
                    [&live] { --live; });
        ++live;
        if (i % 3 == 0)
            eq.runOne();
    }
    // Unaudited steady-churn phase: identical op mix to the audited
    // loop below, long enough for every rung/bucket vector the churn
    // can touch to reach its sticky high-water capacity. Rung depth
    // and staged-bottom width are max-of-draws statistics, so (like
    // the timer-wheel test below) the warm phase runs several times
    // longer than the audited one to discover the rare deep cases.
    for (int i = 0; i < 800'000; ++i) {
        eq.schedule(eq.now() + 1 + rng.range(500'000), [&live] {
            --live;
        });
        ++live;
        eq.runOne();
    }
    // Audit: schedule/dispatch churn at constant population.
    std::uint64_t audited;
    {
        AllocAuditScope scope;
        for (int i = 0; i < 200'000; ++i) {
            eq.schedule(eq.now() + 1 + rng.range(500'000), [&live] {
                --live;
            });
            ++live;
            eq.runOne();
        }
        audited = AllocAudit::disarm();
    }
    if (audited) dumpHist("event queue");
    EXPECT_EQ(audited, 0u)
        << "event schedule/dispatch hit the allocator in steady state";
    eq.runAll();
    EXPECT_EQ(live, 0);
}

TEST(AllocAudit, TimerWheelSteadyStateIsAllocationFree)
{
    TimerWheel tw;
    Rng rng(7);
    int fired = 0;
    std::vector<TimerWheel::TimerId> ids;
    ids.reserve(4096);
    for (int i = 0; i < 4096; ++i)
        ids.push_back(
            tw.add(1 + rng.range(5000), [&fired] { ++fired; }));
    tw.advance(2500);   // half the population fires; slab has churn
    // Unaudited steady-churn phase: same op mix as the audited loop,
    // so every wheel slot the churn's horizon band can reach grows to
    // its sticky high-water capacity first. Slot occupancy peaks are a
    // max-of-draws statistic, so the warm phase runs several times
    // longer than the audited one to discover them all.
    for (int i = 0; i < 600'000; ++i) {
        TimerWheel::TimerId &id = ids[rng.range(ids.size())];
        if (!tw.modify(id, tw.currentJiffy() + 1 + rng.range(5000)))
            id = tw.add(tw.currentJiffy() + 1 + rng.range(5000),
                        [&fired] { ++fired; });
        if (i % 16 == 0)
            tw.advance(tw.currentJiffy() + 1);
    }
    std::uint64_t audited;
    {
        AllocAuditScope scope;
        for (int i = 0; i < 100'000; ++i) {
            // mod/cancel/re-add churn, like keepalive timers under
            // per-segment mod_timer load.
            TimerWheel::TimerId &id = ids[rng.range(ids.size())];
            if (!tw.modify(id, tw.currentJiffy() + 1 + rng.range(5000)))
                id = tw.add(tw.currentJiffy() + 1 + rng.range(5000),
                            [&fired] { ++fired; });
            if (i % 16 == 0)
                tw.advance(tw.currentJiffy() + 1);
        }
        audited = AllocAudit::disarm();
    }
    if (audited) dumpHist("timer wheel");
    EXPECT_EQ(audited, 0u)
        << "timer arm/mod/fire hit the allocator in steady state";
}

TEST(AllocAudit, FlatMapChurnAtSteadyPopulationIsAllocationFree)
{
    // Erase+insert churn at a fixed population near the 3/4 load limit
    // (6000 live keys in 8192 slots): backward-shift deletion leaves no
    // tombstones behind, so the table never rebuilds and never touches
    // the allocator once it has reached its high-water capacity.
    FlatMap<std::uint64_t, std::uint64_t> m;
    Rng rng(5);
    std::uint64_t next = 1;
    std::vector<std::uint64_t> live;
    live.reserve(6000);
    while (live.size() < 6000) {
        live.push_back(next * 0x9e3779b97f4a7c15ull);
        m.insert(live.back(), next++);
    }
    auto churn = [&](int ops) {
        for (int i = 0; i < ops; ++i) {
            std::uint64_t &k = live[rng.range(live.size())];
            m.erase(k);
            k = next * 0x9e3779b97f4a7c15ull;
            m.insert(k, next++);
        }
    };
    churn(100'000);
    std::uint64_t audited;
    {
        AllocAuditScope scope;
        churn(200'000);
        audited = AllocAudit::disarm();
    }
    if (audited) dumpHist("flat map");
    EXPECT_EQ(audited, 0u)
        << "flat map insert/erase churn hit the allocator";
    EXPECT_EQ(m.size(), 6000u);
}

TEST(AllocAudit, TimerWheelFreshOuterSlotsAreAllocationFree)
{
    // Long-horizon timers (2^18..2^19 jiffies out, like keepalive and
    // embryonic timers) land in tv3, whose slot index advances once
    // every 2^14 jiffies, and cascade through tv2 on the way down. The
    // audited window is a full tv3 revolution (2^20 jiffies), so every
    // outer slot index is filled afresh while the allocator is watched.
    TimerWheel tw;
    Rng rng(3);
    int fired = 0;
    auto horizon = [&] {
        return tw.currentJiffy() + (1u << 18) + rng.range(1u << 18);
    };
    // Size the due-batch scratch above any batch the churn produces.
    for (int i = 0; i < 64; ++i)
        tw.add(1, [&fired] { ++fired; });
    tw.advance(1);
    std::vector<TimerWheel::TimerId> ids(512);
    for (TimerWheel::TimerId &id : ids)
        id = tw.add(horizon(), [&fired] { ++fired; });
    auto churn = [&](std::uint64_t jiffies) {
        const std::uint64_t end = tw.currentJiffy() + jiffies;
        while (tw.currentJiffy() < end) {
            TimerWheel::TimerId &id = ids[rng.range(ids.size())];
            if (!tw.modify(id, horizon()))
                id = tw.add(horizon(), [&fired] { ++fired; });
            tw.advance(tw.currentJiffy() + 1024);
        }
    };
    churn(1u << 20);   // the node slab reaches its high-water mark
    const std::uint64_t cascadedBefore = tw.cascaded();
    const int firedBefore = fired;
    std::uint64_t audited;
    {
        AllocAuditScope scope;
        churn(1u << 20);
        audited = AllocAudit::disarm();
    }
    // The window really did move timers down through the outer levels.
    EXPECT_GT(tw.cascaded(), cascadedBefore + 512);
    EXPECT_GT(fired, firedBefore);
    if (audited) dumpHist("timer wheel outer slots");
    EXPECT_EQ(audited, 0u)
        << "long-horizon timers hit the allocator on fresh wheel slots";
}

TEST(AllocAudit, TimerWheelSlabAllocatesOnlyAtNewHighWaterMarks)
{
    // The node slab grows one fixed-size chunk at a time: an add that
    // fits the chunks already held never allocates, an add that needs
    // a new chunk allocates the chunk (plus, at powers of two, the
    // chunk table), and once the wheel has held N timers any later
    // population up to N is allocation-free.
    constexpr std::uint32_t kChunk = TimerWheel::kChunkSize;
    constexpr std::uint32_t kTimers = 4 * kChunk + 7;
    TimerWheel tw;
    std::vector<TimerWheel::TimerId> ids;
    ids.reserve(kTimers);
    int growths = 0;
    for (std::uint32_t i = 0; i < kTimers; ++i) {
        const std::size_t cap = tw.slabCapacity();
        std::uint64_t audited;
        {
            AllocAuditScope scope;
            ids.push_back(tw.add(1000 + i, [] {}));
            audited = AllocAudit::disarm();
        }
        if (tw.slabCapacity() == cap) {
            ASSERT_EQ(audited, 0u) << "add " << i << " inside a chunk";
        } else {
            ++growths;
            ASSERT_EQ(tw.slabCapacity(), cap + kChunk) << "add " << i;
            ASSERT_GE(audited, 1u);
            ASSERT_LE(audited, 2u) << "a chunk, at most one table growth";
        }
    }
    EXPECT_EQ(growths, 5);

    for (TimerWheel::TimerId id : ids)
        tw.cancel(id);
    std::uint64_t audited;
    {
        AllocAuditScope scope;
        for (std::uint32_t i = 0; i < kTimers; ++i)
            tw.add(2000 + i, [] {});
        audited = AllocAudit::disarm();
    }
    if (audited) dumpHist("timer slab refill");
    EXPECT_EQ(audited, 0u) << "refilling to the high-water mark allocated";
    EXPECT_EQ(tw.slabCapacity(), 5u * kChunk);
}

TEST(AllocAudit, DisabledTracerAllocatesNoRings)
{
    // A machine built with tracing off must not carry the queue-depth
    // recorders (512 samples x 16 B per queue); enabling it later
    // allocates them, once.
    constexpr int kCores = 24;
    const std::uint64_t recorderBytes = kNumTraceQueues *
                                        QueueDepthRecorder::kCapacity *
                                        sizeof(QueueSample);
    std::uint64_t offBytes;
    {
        AllocAuditScope scope;
        Tracer tr(kCores, /*enabled=*/false);
        offBytes = AllocAudit::allocBytes();
    }
    EXPECT_LT(offBytes, recorderBytes);
    Tracer tr(kCores, /*enabled=*/false);
    for (int q = 0; q < kNumTraceQueues; ++q)
        EXPECT_EQ(tr.queueDepths(static_cast<TraceQueueId>(q))
                      .samples()
                      .capacity(),
                  0u);
    std::uint64_t enableBytes;
    {
        AllocAuditScope scope;
        tr.setEnabled(true);
        enableBytes = AllocAudit::allocBytes();
    }
    EXPECT_GE(enableBytes, recorderBytes);
    // Filling every recorder past capacity allocates nothing more.
    std::uint64_t noteAllocs;
    {
        AllocAuditScope scope;
        for (int q = 0; q < kNumTraceQueues; ++q)
            for (Tick t = 0; t < 4 * QueueDepthRecorder::kCapacity; ++t)
                tr.noteQueueDepth(static_cast<TraceQueueId>(q), t, 1);
        tr.setEnabled(false);
        tr.setEnabled(true);
        noteAllocs = AllocAudit::disarm();
    }
    EXPECT_EQ(noteAllocs, 0u);
}

TEST(AllocAudit, NotraceNginxSteadyStateIsAllocationFree)
{
    ExperimentConfig cfg;
    cfg.app = AppKind::kNginx;
    cfg.machine.cores = 2;
    cfg.machine.seed = 1234;
    cfg.machine.traceEnabled = false;   // the --notrace contract
    cfg.checkLevel = CheckLevel::kOff;
    cfg.warmupSec = 0.0;
    cfg.measureSec = 0.0;
    cfg.concurrencyPerCore = 50;

    Testbed bed(cfg);
    bed.startLoad();
    // Warm up well past connection churn onset: slabs, rings, table
    // capacity and ladder epochs all reach their high-water marks.
    // 0.3 s covers a full tv1 timer-wheel revolution (256 jiffies) and
    // many TIME_WAIT periods (20 jiffies), so every sticky capacity
    // the steady state can touch has been discovered.
    bed.runUntilChecked(ticksFromSeconds(0.3));

    const std::uint64_t servedBefore = bed.load().completed();
    std::uint64_t audited;
    {
        AllocAuditScope scope;
        bed.runUntilChecked(ticksFromSeconds(0.5));
        audited = AllocAudit::disarm();
    }
    // The window must have done real work (thousands of connections)...
    EXPECT_GT(bed.load().completed(), servedBefore + 500u);
    // ...without a single heap allocation: every per-connection object
    // on the packet/timer/event path is recycled.
    if (audited) dumpHist("nginx");
    EXPECT_EQ(audited, 0u)
        << "steady-state nginx allocated on the hot path; see "
           "sim/event_fn.hh capture budgets and the slab free lists";
}

TEST(AllocAudit, TracedNginxSpanLogAllocatesOnlyArenaChunks)
{
    // The traced counterpart of the --notrace audit: with the span log
    // on, a connection's lifetime (open, every stage span, close) must
    // touch the heap zero times once the live slab and id index have
    // reached their high-water marks. The only allocations left are
    // whole 64 KiB record-arena chunks, at most one per chunk's worth
    // of completed connections.
    ExperimentConfig cfg;
    cfg.app = AppKind::kNginx;
    cfg.machine.cores = 2;
    cfg.machine.seed = 1234;
    cfg.checkLevel = CheckLevel::kOff;
    cfg.warmupSec = 0.0;
    cfg.measureSec = 0.0;
    cfg.concurrencyPerCore = 50;

    Testbed bed(cfg);
    bed.startLoad();
    bed.runUntilChecked(ticksFromSeconds(0.3));

    const ConnSpanLog &log = bed.machine().tracer().connSpans();
    const std::uint64_t logAllocsBefore = log.allocations();
    const std::size_t chunksBefore = log.completed().chunks();
    const std::size_t recordsBefore = log.completedCount();
    std::uint64_t audited;
    {
        AllocAuditScope scope;
        bed.runUntilChecked(ticksFromSeconds(0.5));
        audited = AllocAudit::disarm();
    }
    const std::size_t records = log.completedCount() - recordsBefore;
    const std::size_t chunks = log.completed().chunks() - chunksBefore;
    EXPECT_GT(records, 500u);
    // Every allocation the log made in the window was an arena chunk...
    EXPECT_EQ(log.allocations() - logAllocsBefore, chunks);
    // ...bounded by the records it had to hold (a record never spans
    // two chunks, so each chunk holds at least this many)...
    const std::size_t perChunk =
        SpanRecordArena::kChunkWords / ConnSpanRecord::kMaxWords;
    EXPECT_LE(chunks, (records + perChunk - 1) / perChunk);
    // ...and nothing else in the traced simulation allocated at all.
    if (audited != chunks) dumpHist("traced nginx");
    EXPECT_EQ(audited, chunks)
        << "traced steady-state nginx allocated beyond arena chunks";
}

} // namespace
} // namespace fsim
