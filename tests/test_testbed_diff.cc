/**
 * @file
 * Differential check of the fleet of one against the pre-unification
 * single-machine Testbed (reference_testbed.hh).
 *
 * Testbed is now a FleetTestbed with one server machine and no balancer
 * tier. Every config here runs on both, and the two must agree on the
 * determinism fingerprint and on the full bench-JSON row text — every
 * window counter, lock class, phase fraction, queue timeline, span
 * stage, overload and connection-census field. The matrix covers both
 * apps on all three kernels, a lossy fault plan carrying a fleet-kind
 * event (ignored and counted without a tier), overload control,
 * keep-alive with long-lived clients, periodic invariant passes under
 * accept-queue overflow, tracing off, raw span retention, and a manual startLoad / markWindows
 * / collect drive.
 */

#include <gtest/gtest.h>

#include <string>

#include "harness/bench_json.hh"
#include "harness/experiment.hh"
#include "reference_testbed.hh"

namespace fsim
{
namespace
{

ExperimentConfig
smallRow(AppKind app, const KernelConfig &kernel)
{
    ExperimentConfig cfg;
    cfg.app = app;
    cfg.machine.cores = 4;
    cfg.machine.kernel = kernel;
    cfg.concurrencyPerCore = 40;
    cfg.backendCount = 4;
    cfg.warmupSec = 0.01;
    cfg.measureSec = 0.03;
    cfg.statWindows = 3;
    return cfg;
}

/** The one-row bench-JSON document for @p r. */
std::string
rowText(const ExperimentConfig &cfg, const ExperimentResult &r)
{
    BenchJsonReport report("testbed_diff");
    report.addRow("row", cfg, r);
    return report.str();
}

/** Both results describe the same run, byte for byte. */
void
expectSameResult(const ExperimentConfig &cfg, const ExperimentResult &ref,
                 const ExperimentResult &one)
{
    EXPECT_EQ(ref.fingerprint, one.fingerprint);
    EXPECT_EQ(rowText(cfg, ref), rowText(cfg, one));
    EXPECT_GT(one.served, 0u);
    EXPECT_EQ(one.invariants.violationCount, 0u)
        << one.invariants.summary();
}

/** run() on the reference and on the fleet of one. */
void
expectSameRun(const ExperimentConfig &cfg)
{
    ReferenceTestbed ref(cfg);
    const ExperimentResult a = ref.run();
    Testbed bed(cfg);
    const ExperimentResult b = bed.run();
    expectSameResult(cfg, a, b);
    EXPECT_EQ(ref.currentFingerprint(), bed.currentFingerprint());
    EXPECT_FALSE(b.fleet.enabled);
}

const KernelConfig kKernels[3] = {KernelConfig::base2632(),
                                  KernelConfig::linux313(),
                                  KernelConfig::fastsocket()};

TEST(TestbedDiff, BothAppsAllKernels)
{
    for (AppKind app : {AppKind::kNginx, AppKind::kHaproxy}) {
        for (const KernelConfig &k : kKernels) {
            SCOPED_TRACE(std::to_string(static_cast<int>(app)) + "/" +
                         std::to_string(static_cast<int>(k.flavor)));
            expectSameRun(smallRow(app, k));
        }
    }
}

TEST(TestbedDiff, LossyFaultPlanIgnoresFleetEvents)
{
    ExperimentConfig cfg =
        smallRow(AppKind::kHaproxy, KernelConfig::linux313());
    cfg.lossRate = 0.01;
    cfg.clientTimeout = ticksFromMsec(15);
    cfg.clientRtoBase = ticksFromUsec(3000);
    cfg.machine.kernel.synCookies = true;
    cfg.synBacklog = 64;
    cfg.backendTimeout = ticksFromMsec(5);
    std::string err;
    ASSERT_TRUE(parseFaultPlan("loss_burst@0.012-0.02:rate=0.2;"
                               "backend_down@0.015-0.03:target=1;"
                               "machine_crash@0.02-0.03:target=0",
                               cfg.faults, err))
        << err;
    expectSameRun(cfg);

    // Without a balancer tier nothing orchestrates machine_crash: the
    // injector counts it as ignored and the machine never goes down.
    Testbed bed(cfg);
    bed.run();
    ASSERT_NE(bed.faults(), nullptr);
    EXPECT_EQ(bed.faults()->ignoredEvents(), 1);
    EXPECT_TRUE(bed.machineUp(0));
    EXPECT_EQ(bed.crashes(), 0u);
    EXPECT_GT(bed.fabric().lost(), 0u);
}

TEST(TestbedDiff, OverloadControl)
{
    ExperimentConfig cfg =
        smallRow(AppKind::kNginx, KernelConfig::base2632());
    cfg.machine.cores = 2;
    cfg.concurrencyPerCore = 120;
    cfg.clientTimeout = ticksFromMsec(20);
    cfg.clientHealthEvery = 10;
    std::string err;
    ASSERT_TRUE(parseOverloadSpec("budget=128,gate=16,deadline_ms=5,"
                                  "cap=64,high=0.3,critical=0.7,low=0.15",
                                  cfg.machine.overload, err))
        << err;
    expectSameRun(cfg);
}

TEST(TestbedDiff, KeepAliveLongLivedMix)
{
    ExperimentConfig cfg =
        smallRow(AppKind::kNginx, KernelConfig::fastsocket());
    cfg.requestsPerConn = 3;
    cfg.longLivedPermille = 250;
    cfg.longLivedRequests = 4;
    cfg.longLivedThink = ticksFromUsec(400);
    cfg.clientPortSpan = 2000;
    cfg.clientIps = 16;
    expectSameRun(cfg);
}

TEST(TestbedDiff, PeriodicChecksWithAcceptOverflow)
{
    ExperimentConfig cfg =
        smallRow(AppKind::kHaproxy, KernelConfig::base2632());
    cfg.checkLevel = CheckLevel::kPeriodic;
    cfg.checkIntervalSec = 0.002;
    cfg.listenBacklog = 2;
    cfg.clientTimeout = ticksFromMsec(15);
    cfg.clientRtoBase = ticksFromUsec(3000);
    expectSameRun(cfg);

    // The sub-window SYN/accept deltas are live, not zeros on both.
    const ExperimentResult r = runExperiment(cfg);
    std::uint64_t rsts = 0;
    for (const LockWindow &lw : r.lockWindows)
        rsts += lw.acceptQueueRsts;
    EXPECT_GT(rsts, 0u);
}

TEST(TestbedDiff, TracingOff)
{
    for (const KernelConfig &k : kKernels) {
        SCOPED_TRACE(static_cast<int>(k.flavor));
        ExperimentConfig cfg = smallRow(AppKind::kNginx, k);
        cfg.machine.traceEnabled = false;
        expectSameRun(cfg);
    }
}

TEST(TestbedDiff, KeepSpanTracesCopiesTheSameRawSpans)
{
    ExperimentConfig cfg =
        smallRow(AppKind::kHaproxy, KernelConfig::base2632());
    cfg.keepSpanTraces = true;
    ReferenceTestbed ref(cfg);
    const ExperimentResult a = ref.run();
    Testbed bed(cfg);
    const ExperimentResult b = bed.run();
    expectSameResult(cfg, a, b);
    ASSERT_TRUE(a.spanTraces && b.spanTraces);
    ASSERT_EQ(a.spanTraces->size(), b.spanTraces->size());
    EXPECT_GT(b.spanTraces->size(), 100u);
    for (std::size_t i = 0; i < a.spanTraces->size(); ++i) {
        const ConnSpanTrace &x = (*a.spanTraces)[i];
        const ConnSpanTrace &y = (*b.spanTraces)[i];
        ASSERT_EQ(x.connId, y.connId);
        EXPECT_EQ(x.openTick, y.openTick);
        EXPECT_EQ(x.closeTick, y.closeTick);
        ASSERT_EQ(x.spans.size(), y.spans.size());
        for (std::size_t j = 0; j < x.spans.size(); ++j) {
            EXPECT_EQ(x.spans[j].stage, y.spans[j].stage);
            EXPECT_EQ(x.spans[j].core, y.spans[j].core);
            EXPECT_EQ(x.spans[j].begin, y.spans[j].begin);
            EXPECT_EQ(x.spans[j].end, y.spans[j].end);
        }
    }
}

TEST(TestbedDiff, ManualDrive)
{
    const ExperimentConfig cfg =
        smallRow(AppKind::kNginx, KernelConfig::linux313());
    const Tick warm = ticksFromSeconds(cfg.warmupSec);
    const Tick end = ticksFromSeconds(cfg.warmupSec + cfg.measureSec);

    ReferenceTestbed ref(cfg);
    ref.startLoad();
    ref.runUntilChecked(warm);
    ref.markWindows();
    ref.runUntilChecked(end);
    const ExperimentResult a = ref.collect();

    Testbed bed(cfg);
    bed.startLoad();
    bed.startLoad();    // idempotent
    bed.runUntilChecked(warm);
    bed.markWindows();
    bed.runUntilChecked(end);
    const ExperimentResult b = bed.collect();

    expectSameResult(cfg, a, b);
    EXPECT_TRUE(b.lockWindows.empty());

    // A second window straight after the first agrees too.
    ref.markWindows();
    bed.markWindows();
    ref.runUntilChecked(end + warm);
    bed.runUntilChecked(end + warm);
    expectSameResult(cfg, ref.collect(), bed.collect());
}

} // anonymous namespace
} // namespace fsim
