/**
 * @file
 * Tests for the per-connection span log: lifecycle conservation,
 * accept-queue sojourn placement, exec-time reconciliation against CPU
 * busy cycles, --notrace zero-cost, forensics determinism, and the
 * Perfetto exporter's flow/slice accounting.
 */

#include <cstdio>
#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "trace/conn_span.hh"
#include "trace/perfetto_export.hh"
#include "trace/span_forensics.hh"

namespace fsim
{
namespace
{

ExperimentConfig
smallConfig()
{
    ExperimentConfig cfg;
    cfg.machine.cores = 2;
    cfg.concurrencyPerCore = 30;
    cfg.warmupSec = 0.01;
    cfg.measureSec = 0.02;
    return cfg;
}

TEST(ConnSpanLog, RecordsLifecycleAndLatency)
{
    ConnSpanLog log;
    log.open(7, 100, /*passive=*/true);
    log.add(7, ConnStage::kSynRx, 0, 100, 140);
    log.add(7, ConnStage::kAcceptQueue, 0, 140, 300);
    log.add(7, ConnStage::kAccept, 1, 300, 360);
    log.add(7, ConnStage::kAppRead, 1, 400, 420);
    log.add(7, ConnStage::kAppWrite, 1, 420, 470);
    log.close(7, 600);

    ASSERT_EQ(log.completedCount(), 1u);
    EXPECT_EQ(log.liveCount(), 0u);
    const ConnSpanRecord tr = *log.completed().begin();
    EXPECT_EQ(tr.connId(), 7u);
    EXPECT_TRUE(tr.closed());
    EXPECT_TRUE(tr.passive());
    EXPECT_EQ(tr.openTick(), 100u);
    EXPECT_EQ(tr.closeTick(), 600u);
    EXPECT_EQ(tr.stageTicks(ConnStage::kAcceptQueue), 160u);
    EXPECT_EQ(tr.stageCount(ConnStage::kAccept), 1u);
    EXPECT_EQ(tr.stageCount(ConnStage::kDispatch), 0u);
    EXPECT_EQ(tr.coreMask(), 0x3u);
    // Latency runs to the end of the last write, not to destruction.
    EXPECT_EQ(tr.serviceLatency(), 470u - 100u);
    // Spans on unknown ids (already destroyed) are silently ignored.
    log.add(999, ConnStage::kSoftirqRx, 0, 700, 710);
    EXPECT_EQ(log.spansRecorded(), 5u);
}

TEST(ConnSpanLog, DisabledIsFree)
{
    ConnSpanLog log;
    log.setEnabled(false);
    log.open(1, 10, true);
    log.add(1, ConnStage::kSynRx, 0, 10, 20);
    log.noteShed(1, 0);
    log.close(1, 30);
    EXPECT_EQ(log.allocations(), 0u);
    EXPECT_EQ(log.opened(), 0u);
    EXPECT_EQ(log.completedCount(), 0u);
    EXPECT_EQ(log.execSelfTicks(0), 0u);
}

TEST(ConnSpanLog, PerConnSpanCapCountsDrops)
{
    ConnSpanLog log;
    log.open(1, 0, true);
    const std::size_t extra = 5;
    for (std::size_t i = 0; i < ConnSpanLog::kMaxSpansPerConn + extra;
         ++i) {
        Tick b = static_cast<Tick>(i * 10);
        log.add(1, ConnStage::kSoftirqRx, 0, b, b + 4);
    }
    EXPECT_EQ(log.spansDropped(), extra);
    log.close(1, 10000);
    EXPECT_EQ((*log.completed().begin()).stageCount(ConnStage::kSoftirqRx),
              ConnSpanLog::kMaxSpansPerConn);
    // Exec accounting still covers the dropped spans: the core ran them
    // whether or not the per-connection vector kept them.
    EXPECT_EQ(log.execSelfTicks(0),
              4u * (ConnSpanLog::kMaxSpansPerConn + extra));
}

TEST(ConnSpanTest, LifecycleConservation)
{
    ExperimentConfig cfg = smallConfig();
    ConnSpanRecorder raw;   // outlives the log it taps
    Testbed bed(cfg);
    bed.machine().tracer().connSpans().setTap(&raw);
    bed.run();

    const ConnSpanLog &log = bed.machine().tracer().connSpans();
    // Every trace ever opened is either completed or still live.
    EXPECT_EQ(log.opened(), log.closedTotal() + log.liveCount());
    EXPECT_EQ(log.closedTotal(),
              log.completedCount() + log.tracesDropped());
    EXPECT_GT(log.completedCount(), 0u);
    ASSERT_EQ(raw.completed().size(), log.completedCount());

    // The folded records and the raw spans describe the same
    // connections, in the same completion order.
    auto rec = log.completed().begin();
    for (const ConnSpanTrace &tr : raw.completed()) {
        EXPECT_TRUE(tr.closed);
        EXPECT_GE(tr.closeTick, tr.openTick);
        for (const ConnSpan &sp : tr.spans) {
            EXPECT_LE(sp.begin, sp.end);
            EXPECT_GE(sp.begin, tr.openTick);
            EXPECT_LE(sp.end, tr.closeTick);
        }
        EXPECT_EQ((*rec).connId(), tr.connId);
        EXPECT_TRUE((*rec).closed());
        EXPECT_EQ((*rec).closeTick(), tr.closeTick);
        EXPECT_EQ((*rec).serviceLatency(), tr.serviceLatency());
        ++rec;
    }
}

TEST(ConnSpanTest, FoldedRecordsStayCompact)
{
    // A short nginx connection folds its ~12 spans into one record of
    // at most 128 B (vs ~460 B of raw spans plus trace header).
    ExperimentConfig cfg = smallConfig();
    Testbed bed(cfg);
    bed.run();

    const ConnSpanLog &log = bed.machine().tracer().connSpans();
    ASSERT_GT(log.completedCount(), 0u);
    std::size_t words = 0;
    for (ConnSpanRecord rec : log.completed()) {
        EXPECT_LE(rec.words(), ConnSpanRecord::kMaxWords);
        words += rec.words();
    }
    EXPECT_LE(8 * words, 128 * log.completedCount());
    EXPECT_GT(log.spansRecorded(), 8 * log.opened());
}

TEST(ConnSpanTest, AcceptQueueSojournSpansMatchDequeue)
{
    ExperimentConfig cfg = smallConfig();
    ConnSpanRecorder raw;   // outlives the log it taps
    Testbed bed(cfg);
    bed.machine().tracer().connSpans().setTap(&raw);
    bed.run();

    std::size_t checked = 0;
    for (const ConnSpanTrace &tr : raw.completed()) {
        if (!tr.passive)
            continue;
        const ConnSpan *queue = nullptr;
        const ConnSpan *accept = nullptr;
        std::size_t queue_spans = 0;
        for (const ConnSpan &sp : tr.spans) {
            if (sp.stage == ConnStage::kAcceptQueue) {
                queue = &sp;
                ++queue_spans;
            } else if (sp.stage == ConnStage::kAccept) {
                accept = &sp;
            }
        }
        if (!accept)
            continue;   // destroyed before accept (overflow, reset)
        ++checked;
        // Accepted exactly once => exactly one sojourn span, and the
        // dequeue instant lies inside the accept() syscall that popped
        // the connection: enqueue <= dequeue, dequeue within accept.
        ASSERT_NE(queue, nullptr);
        EXPECT_EQ(queue_spans, 1u);
        EXPECT_LE(queue->begin, queue->end);
        EXPECT_GE(queue->end, accept->begin);
        EXPECT_LE(queue->end, accept->end);
    }
    EXPECT_GT(checked, 0u);
}

TEST(ConnSpanTest, ExecTimeReconcilesWithBusyCycles)
{
    ExperimentConfig cfg = smallConfig();
    Testbed bed(cfg);
    bed.run();

    const ConnSpanLog &log = bed.machine().tracer().connSpans();
    std::uint64_t total_exec = 0;
    for (int c = 0; c < bed.machine().numCores(); ++c) {
        std::uint64_t exec = log.execSelfTicks(c);
        std::uint64_t busy = bed.machine().cpu().core(c).busyTicks();
        // Exec spans are sub-intervals of serially executed tasks: the
        // per-core recorded exec time can never exceed busy time.
        EXPECT_LE(exec, busy) << "core " << c;
        total_exec += exec;
    }
    EXPECT_GT(total_exec, 0u);
}

TEST(ConnSpanTest, NotraceCostsNothingAndKeepsFingerprint)
{
    ExperimentConfig cfg = smallConfig();
    Testbed traced(cfg);
    ExperimentResult rt = traced.run();

    ExperimentConfig off = smallConfig();
    off.machine.traceEnabled = false;
    Testbed untraced(off);
    ExperimentResult ru = untraced.run();

    const ConnSpanLog &log = untraced.machine().tracer().connSpans();
    EXPECT_EQ(log.allocations(), 0u);
    EXPECT_EQ(log.opened(), 0u);
    EXPECT_EQ(log.completedCount(), 0u);
    EXPECT_FALSE(ru.spanForensics.enabled);
    // Tracing must not perturb simulated behavior.
    EXPECT_EQ(rt.fingerprint, ru.fingerprint);
    EXPECT_TRUE(rt.spanForensics.enabled);
    EXPECT_GT(rt.spanForensics.completed, 0u);
}

TEST(ConnSpanTest, ForensicsDeterministicAcrossRuns)
{
    ExperimentConfig cfg = smallConfig();
    Testbed a(cfg);
    ExperimentResult ra = a.run();
    Testbed b(cfg);
    ExperimentResult rb = b.run();

    EXPECT_EQ(ra.fingerprint, rb.fingerprint);
    EXPECT_EQ(renderSpanForensics(ra.spanForensics, "x"),
              renderSpanForensics(rb.spanForensics, "x"));
    ASSERT_EQ(ra.spanForensics.exemplars.size(),
              rb.spanForensics.exemplars.size());
    for (std::size_t i = 0; i < ra.spanForensics.exemplars.size(); ++i) {
        EXPECT_EQ(ra.spanForensics.exemplars[i].connId,
                  rb.spanForensics.exemplars[i].connId);
        EXPECT_EQ(ra.spanForensics.exemplars[i].latency,
                  rb.spanForensics.exemplars[i].latency);
    }
    EXPECT_EQ(ra.spanForensics.dominantTailStage,
              rb.spanForensics.dominantTailStage);
}

TEST(ConnSpanTest, ForensicsSingleConnPicksItEverywhere)
{
    ConnSpanLog log;
    log.open(42, 0, true);
    log.add(42, ConnStage::kSynRx, 0, 0, 10);
    log.add(42, ConnStage::kAcceptQueue, 0, 10, 200);
    log.add(42, ConnStage::kAccept, 1, 200, 230);
    log.add(42, ConnStage::kAppWrite, 1, 240, 260);
    log.close(42, 300);

    SpanForensics f = buildSpanForensics(log, 0);
    EXPECT_TRUE(f.enabled);
    EXPECT_EQ(f.completed, 1u);
    ASSERT_EQ(f.exemplars.size(), 3u);
    for (const ExemplarBreakdown &ex : f.exemplars) {
        EXPECT_EQ(ex.connId, 42u);
        EXPECT_EQ(ex.latency, 260u);
    }
    EXPECT_EQ(f.dominantTailStage, "accept-queue");
}

TEST(PerfettoExport, EmitsFlowsOnlyAcrossCores)
{
    std::vector<ConnSpanTrace> traces;
    ConnSpanTrace cross;
    cross.connId = 1;
    cross.openTick = 0;
    cross.closeTick = 100;
    cross.closed = true;
    cross.spans.push_back({0, 20, 0, 0, ConnStage::kSynRx});
    cross.spans.push_back({30, 50, 0, 1, ConnStage::kAppRead});
    traces.push_back(cross);
    ConnSpanTrace local;
    local.connId = 2;
    local.openTick = 0;
    local.closeTick = 100;
    local.closed = true;
    local.spans.push_back({0, 20, 0, 0, ConnStage::kSynRx});
    local.spans.push_back({30, 50, 0, 0, ConnStage::kAppRead});
    traces.push_back(local);

    PerfettoMeta meta;
    meta.bench = "unit";
    meta.label = "flows";
    meta.cores = 2;
    const char *path = "test_conn_span_perfetto.json";
    PerfettoStats st;
    ASSERT_TRUE(writePerfettoTrace(path, traces, meta, &st));
    EXPECT_EQ(st.tracesExported, 2u);
    EXPECT_EQ(st.durationEvents, 8u);   // 4 spans -> paired B + E
    // Only the connection that hopped cores gets a flow arrow.
    EXPECT_EQ(st.flowPairs, 1u);
    EXPECT_FALSE(st.truncated);
    std::remove(path);
}

} // namespace
} // namespace fsim
