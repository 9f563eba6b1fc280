/**
 * @file
 * Differential check of the folded span log against the unfolded
 * reference (reference_conn_span.hh).
 *
 * Both logs see one span stream: the reference rides the folded log's
 * ConnSpanTap, so every open/add/shed/trace-id/close call reaches it
 * verbatim. The folded records must then reproduce everything the raw
 * spans gave — span forensics, per-connection records and live
 * snapshots, the fleet stitcher's server fields, execSelfTicks and the
 * opened/retained/dropped counters — exactly. Streams cover traced
 * nginx rows on all three kernels, admission-control shedding, a fleet
 * failover-churn run (crash finalization, restart, VIP failover), and
 * synthetic streams that hit the per-connection span cap, the
 * retention cap, 64-bit stage totals and re-opened ids.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "harness/experiment.hh"
#include "reference_conn_span.hh"
#include "sim/rng.hh"

namespace fsim
{
namespace
{

/** Field-by-field equality of one folded record and its raw trace. */
void
expectSameConn(ConnSpanRecord rec, const ConnSpanTrace &tr)
{
    SCOPED_TRACE("conn " + std::to_string(tr.connId));
    EXPECT_EQ(rec.connId(), tr.connId);
    EXPECT_EQ(rec.traceId(), tr.traceId);
    EXPECT_EQ(rec.openTick(), tr.openTick);
    EXPECT_EQ(rec.closeTick(), tr.closeTick);
    EXPECT_EQ(rec.closed(), tr.closed);
    EXPECT_EQ(rec.passive(), tr.passive);
    EXPECT_EQ(rec.shedReason(), tr.shedReason);
    EXPECT_EQ(rec.serviceLatency(), tr.serviceLatency());
    std::uint64_t cores = 0;
    std::uint32_t counts[kNumConnStages] = {};
    Tick exec = 0;
    for (const ConnSpan &sp : tr.spans) {
        ++counts[static_cast<int>(sp.stage)];
        if (connStageKind(sp.stage) != ConnStageKind::kWait &&
            sp.core >= 0)
            cores |= std::uint64_t{1} << sp.core;
        if (connStageKind(sp.stage) == ConnStageKind::kExec)
            exec += sp.end - sp.begin;
    }
    EXPECT_EQ(rec.coreMask(), cores);
    EXPECT_EQ(rec.execTicks(), exec);
    for (int s = 0; s < kNumConnStages; ++s) {
        const auto st = static_cast<ConnStage>(s);
        EXPECT_EQ(rec.stageTicks(st), tr.stageTicks(st)) << s;
        EXPECT_EQ(rec.stageCount(st), counts[s]) << s;
    }
}

void
expectSameForensics(const SpanForensics &a, const SpanForensics &b)
{
    EXPECT_EQ(a.enabled, b.enabled);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.live, b.live);
    EXPECT_EQ(a.shed, b.shed);
    EXPECT_EQ(a.spansRecorded, b.spansRecorded);
    EXPECT_EQ(a.spansDropped, b.spansDropped);
    EXPECT_EQ(a.tracesDropped, b.tracesDropped);
    ASSERT_EQ(a.stages.size(), b.stages.size());
    for (std::size_t i = 0; i < a.stages.size(); ++i) {
        const StagePercentiles &x = a.stages[i];
        const StagePercentiles &y = b.stages[i];
        EXPECT_EQ(x.stage, y.stage);
        EXPECT_EQ(x.count, y.count);
        EXPECT_EQ(x.p50, y.p50);
        EXPECT_EQ(x.p90, y.p90);
        EXPECT_EQ(x.p99, y.p99);
        EXPECT_EQ(x.p999, y.p999);
        EXPECT_EQ(x.max, y.max);
        EXPECT_EQ(x.totalTicks, y.totalTicks);
    }
    ASSERT_EQ(a.exemplars.size(), b.exemplars.size());
    for (std::size_t i = 0; i < a.exemplars.size(); ++i) {
        const ExemplarBreakdown &x = a.exemplars[i];
        const ExemplarBreakdown &y = b.exemplars[i];
        EXPECT_EQ(x.percentile, y.percentile);
        EXPECT_EQ(x.connId, y.connId);
        EXPECT_EQ(x.latency, y.latency);
        EXPECT_EQ(x.stageTicks, y.stageTicks);
        EXPECT_EQ(x.stageCounts, y.stageCounts);
        EXPECT_EQ(x.cores, y.cores);
        EXPECT_EQ(x.unattributed, y.unattributed);
    }
    EXPECT_EQ(a.dominantTailStage, b.dominantTailStage);
    EXPECT_EQ(renderSpanForensics(a, "x"), renderSpanForensics(b, "x"));
}

/** Counters, every completed record, the live snapshot, per-core exec
 *  totals and forensics from @p marks must all agree. */
void
expectSameLog(const ConnSpanLog &log, const ReferenceConnSpanLog &ref,
              int cores, const std::vector<std::size_t> &marks)
{
    EXPECT_EQ(log.opened(), ref.opened());
    EXPECT_EQ(log.closedTotal(), ref.closedTotal());
    EXPECT_EQ(log.spansRecorded(), ref.spansRecorded());
    EXPECT_EQ(log.spansDropped(), ref.spansDropped());
    EXPECT_EQ(log.tracesDropped(), ref.tracesDropped());
    EXPECT_EQ(log.liveCount(), ref.liveCount());
    ASSERT_EQ(log.completedCount(), ref.completedCount());
    for (int c = 0; c < cores; ++c)
        EXPECT_EQ(log.execSelfTicks(c), ref.execSelfTicks(c)) << c;

    std::size_t i = 0;
    for (ConnSpanRecord rec : log.completed())
        expectSameConn(rec, ref.completed()[i++]);
    EXPECT_EQ(i, ref.completedCount());

    const SpanRecordArena live = log.liveSnapshot();
    const std::vector<const ConnSpanTrace *> refLive = ref.liveSnapshot();
    ASSERT_EQ(live.size(), refLive.size());
    i = 0;
    for (ConnSpanRecord rec : live)
        expectSameConn(rec, *refLive[i++]);

    for (std::size_t mark : marks)
        expectSameForensics(buildSpanForensics(log, mark),
                            referenceSpanForensics(ref, mark));
}

/** A random span stream driven into @p log (which taps the reference):
 *  re-opens, unknown ids, inverted intervals, long connections past the
 *  span cap, 64-bit stage totals, shed verdicts, trace ids, and a
 *  crash-style closeAllLive midway. Connection ids step by @p stride; a
 *  power-of-two stride makes every id collide in the live index. */
void
driveRandomStream(ConnSpanLog &log, std::uint64_t seed, int ops,
                  std::uint64_t stride)
{
    Rng rng(seed);
    std::vector<std::uint64_t> live;
    std::uint64_t nextId = 1;
    Tick now = 1000;
    for (int op = 0; op < ops; ++op) {
        now += rng.range(50);
        const std::uint64_t dice = rng.range(100);
        if (dice < 10 || live.empty()) {
            const std::uint64_t id = stride * nextId++;
            log.open(id, now, rng.chance(0.7));
            live.push_back(id);
            if (rng.chance(0.5))
                log.setTraceId(id, rng.next() | 1);
        } else if (dice < 16) {
            const std::size_t k = rng.range(live.size());
            log.close(live[k], now + rng.range(10));
            live[k] = live.back();
            live.pop_back();
        } else if (dice < 17) {
            log.noteShed(live[rng.range(live.size())],
                         static_cast<std::uint8_t>(rng.range(3)));
        } else if (dice < 18) {
            // Re-open a live id: spans are kept, the open is replaced.
            log.open(live[rng.range(live.size())], now, rng.chance(0.5));
        } else if (dice < 19) {
            log.add(stride * (nextId + 1000), ConnStage::kSoftirqRx, 0,
                    now, now + 5);
        } else {
            const std::uint64_t id = live[rng.range(live.size())];
            const auto stage =
                static_cast<ConnStage>(rng.range(kNumConnStages));
            const CoreId core =
                connStageKind(stage) == ConnStageKind::kWait &&
                        rng.chance(0.2)
                    ? -1
                    : static_cast<CoreId>(rng.range(ConnSpanLog::kMaxCores));
            Tick len = rng.range(400);
            if (rng.chance(0.002))
                len = (Tick{1} << 32) + rng.range(1000);
            const Tick begin = now;
            const Tick end = rng.chance(0.02) ? begin - 1 : begin + len;
            log.add(id, stage, core, begin, end,
                    static_cast<std::uint32_t>(rng.range(8)));
            // A few connections run far past the per-connection cap.
            if (id / stride % 97 == 0)
                for (int k = 0; k < 8; ++k)
                    log.add(id, ConnStage::kSoftirqRx,
                            static_cast<CoreId>(id % 4), begin, begin + 3);
        }
        if (op == ops / 2) {
            log.closeAllLive(now);
            live.clear();
        }
    }
}

TEST(ConnSpanDiff, RandomStreamsMatchReference)
{
    const std::pair<std::uint64_t, std::uint64_t> runs[] = {
        {1, 1}, {2, 1}, {3, 1}, {4, 1u << 12}, {5, 1u << 20}};
    for (const auto &[seed, stride] : runs) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " stride " +
                     std::to_string(stride));
        ReferenceConnSpanLog ref;
        ConnSpanLog log;
        log.setTap(&ref);
        driveRandomStream(log, seed, 60'000, stride);
        EXPECT_GT(log.spansDropped(), 0u);    // the cap was exercised
        EXPECT_GT(log.liveCount(), 0u);
        expectSameLog(log, ref, ConnSpanLog::kMaxCores,
                      {0, log.completedCount() / 3,
                       log.completedCount()});
    }
}

TEST(ConnSpanDiff, RetentionCapMatchesReference)
{
    ReferenceConnSpanLog ref;
    ConnSpanLog log;
    log.setTap(&ref);
    const std::uint64_t n = ConnSpanLog::kMaxRetainedTraces + 300;
    for (std::uint64_t id = 1; id <= n; ++id) {
        const Tick t = id * 10;
        log.open(id, t, id % 5 != 0);
        log.add(id, ConnStage::kSynRx, id % 4, t, t + id % 7);
        log.add(id, ConnStage::kAppWrite, id % 4, t + 7, t + 9);
        if (id % 3 != 0)
            log.close(id, t + 9);
    }
    log.closeAllLive(n * 10 + 100);
    EXPECT_GT(log.tracesDropped(), 0u);
    EXPECT_EQ(log.completedCount(), ConnSpanLog::kMaxRetainedTraces);
    expectSameLog(log, ref, 4, {0, 1000});
    // Spans of dropped traces still count toward per-core exec time.
    EXPECT_GT(log.execSelfTicks(0), 0u);
}

ExperimentConfig
nginxRow(const KernelConfig &kernel)
{
    ExperimentConfig cfg;
    cfg.app = AppKind::kNginx;
    cfg.machine.cores = 4;
    cfg.machine.kernel = kernel;
    cfg.concurrencyPerCore = 40;
    cfg.warmupSec = 0.01;
    cfg.measureSec = 0.03;
    return cfg;
}

/** Drive @p cfg the way Testbed::run() does, with the reference on the
 *  span log's tap, and compare everything at collect. */
void
expectTracedRowMatches(const ExperimentConfig &cfg)
{
    ReferenceConnSpanLog ref;   // outlives the log it taps
    Testbed bed(cfg);
    ConnSpanLog &log = bed.machine().tracer().connSpans();
    log.setTap(&ref);
    bed.startLoad();
    bed.runUntilChecked(ticksFromSeconds(cfg.warmupSec));
    bed.markWindows();
    const std::size_t mark = ref.completedCount();
    bed.runUntilChecked(ticksFromSeconds(cfg.warmupSec + cfg.measureSec));
    ExperimentResult r = bed.collect();

    EXPECT_GT(r.spanForensics.completed, 100u);
    expectSameForensics(r.spanForensics,
                        referenceSpanForensics(ref, mark));
    expectSameLog(log, ref, cfg.machine.cores, {0, mark});
}

TEST(ConnSpanDiff, TracedNginxRowsAllKernels)
{
    const KernelConfig kernels[] = {KernelConfig::base2632(),
                                    KernelConfig::linux313(),
                                    KernelConfig::fastsocket()};
    for (const KernelConfig &k : kernels) {
        SCOPED_TRACE(static_cast<int>(k.flavor));
        expectTracedRowMatches(nginxRow(k));
    }
}

TEST(ConnSpanDiff, ShedConnectionsMatchReference)
{
    ExperimentConfig cfg = nginxRow(KernelConfig::base2632());
    cfg.machine.cores = 2;
    cfg.concurrencyPerCore = 150;
    cfg.clientTimeout = ticksFromMsec(20);
    cfg.measureSec = 0.05;
    std::string err;
    ASSERT_TRUE(parseOverloadSpec("budget=64,gate=8,deadline_ms=2,"
                                  "cap=32,high=0.05,critical=0.5,"
                                  "low=0.02",
                                  cfg.machine.overload, err))
        << err;
    ReferenceConnSpanLog ref;
    Testbed bed(cfg);
    bed.machine().tracer().connSpans().setTap(&ref);
    ExperimentResult r = bed.run();
    EXPECT_GT(r.spanForensics.shed, 0u);
    expectSameLog(bed.machine().tracer().connSpans(), ref, 2, {0});
}

/** Clear the server-hop fields the stitcher fills. */
void
resetServerFields(FleetTrace &tr)
{
    tr.stitched = false;
    tr.serverOrderly = false;
    tr.serverOpen = 0;
    tr.serverClose = 0;
    tr.serverService = 0;
    tr.serverExec = 0;
}

TEST(ConnSpanDiff, FleetFailoverChurnStitchMatchesReference)
{
    FleetConfig fc;
    fc.serverMachines = 4;
    fc.balancers = 2;
    fc.base.app = AppKind::kNginx;
    fc.base.machine.cores = 2;
    fc.base.machine.kernel = KernelConfig::fastsocket();
    fc.base.concurrencyPerCore = 20;
    fc.base.checkLevel = CheckLevel::kPeriodic;
    fc.base.clientTimeout = ticksFromMsec(30);
    fc.base.clientRtoBase = ticksFromUsec(8000);
    fc.openLoopRate = 30'000.0;

    // Taps in FleetTestbed's generation order: live slots first, then
    // retired generations in retirement order.
    std::vector<std::unique_ptr<ReferenceConnSpanLog>> slotRefs;
    std::vector<std::unique_ptr<ReferenceConnSpanLog>> retiredRefs;
    FleetTestbed bed(fc);
    for (int s = 0; s < bed.machineCount(); ++s) {
        slotRefs.push_back(std::make_unique<ReferenceConnSpanLog>());
        bed.machine(s).tracer().connSpans().setTap(slotRefs.back().get());
    }
    const auto at = [](double ms) { return ticksFromMsec(ms); };
    bed.startLoad();
    bed.runUntilChecked(at(10));
    bed.markWindows();
    bed.runUntilChecked(at(20));
    bed.crashMachine(1, FaultEvent::CrashMode::kBlackhole);
    bed.runUntilChecked(at(26));
    bed.crashBalancer(0);
    bed.runUntilChecked(at(34));
    const ConnSpanLog &retiredLog = bed.machine(1).tracer().connSpans();
    bed.restartMachine(1);
    retiredRefs.push_back(std::move(slotRefs[1]));
    slotRefs[1] = std::make_unique<ReferenceConnSpanLog>();
    bed.machine(1).tracer().connSpans().setTap(slotRefs[1].get());
    bed.runUntilChecked(at(40));
    bed.restoreBalancer(0);
    bed.runUntilChecked(at(50));
    // Collect with traffic still in flight, so live snapshots join too.
    bed.collect();

    std::vector<const ReferenceConnSpanLog *> refs;
    for (const auto &r : slotRefs)
        refs.push_back(r.get());
    for (const auto &r : retiredRefs)
        refs.push_back(r.get());

    // Per-machine logs: counters, records, live snapshots, exec ticks.
    for (int s = 0; s < bed.machineCount(); ++s) {
        SCOPED_TRACE("slot " + std::to_string(s));
        expectSameLog(bed.machine(s).tracer().connSpans(), *slotRefs[s],
                      fc.base.machine.cores, {0});
    }
    {
        SCOPED_TRACE("retired slot 1");
        expectSameLog(retiredLog, *retiredRefs[0], fc.base.machine.cores,
                      {0});
        EXPECT_GT(retiredRefs[0]->completedCount(), 0u);
    }

    // Re-stitch the balancer/client records from raw spans and compare
    // every server field.
    std::unordered_map<std::uint64_t, FleetTrace> expect =
        bed.traceLog().records();
    for (auto &kv : expect)
        resetServerFields(kv.second);
    std::uint64_t stitched = 0;
    const auto stitch = [&](const ConnSpanTrace &tr) {
        if (tr.traceId == 0)
            return;
        auto it = expect.find(tr.traceId);
        if (it != expect.end() && referenceStitch(it->second, tr))
            ++stitched;
    };
    std::uint64_t liveJoined = 0;
    for (const ReferenceConnSpanLog *ref : refs) {
        for (const ConnSpanTrace &tr : ref->completed())
            stitch(tr);
        for (const ConnSpanTrace *tr : ref->liveSnapshot()) {
            stitch(*tr);
            liveJoined += tr->traceId != 0;
        }
    }
    EXPECT_GT(liveJoined, 0u);
    EXPECT_GT(stitched, 500u);
    EXPECT_EQ(bed.traceLog().machineSpansStitched(), stitched);
    for (const auto &kv : bed.traceLog().records()) {
        const FleetTrace &got = kv.second;
        const FleetTrace &want = expect.at(kv.first);
        SCOPED_TRACE("trace " + std::to_string(kv.first));
        EXPECT_EQ(got.stitched, want.stitched);
        EXPECT_EQ(got.serverOrderly, want.serverOrderly);
        EXPECT_EQ(got.serverOpen, want.serverOpen);
        EXPECT_EQ(got.serverClose, want.serverClose);
        EXPECT_EQ(got.serverService, want.serverService);
        EXPECT_EQ(got.serverExec, want.serverExec);
    }
}

} // namespace
} // namespace fsim
