/**
 * @file
 * Differential check of the oracle's bounded-run driver against the
 * pre-Scenario runOneKernel() (reference_differential.hh).
 *
 * The differential oracle now runs each kernel as a Scenario through
 * runScenarioOnce(). On the oracle's workloads (diff_oracle's nginx,
 * lossy nginx and haproxy passes, and the 2-core keep-alive workload)
 * both drivers must report the same drain, totals, perf observables,
 * fingerprint and invariant counts under both kernels.
 */

#include <gtest/gtest.h>

#include "check/scenario.hh"
#include "reference_differential.hh"

namespace fsim
{
namespace
{

void
expectSameRun(const Scenario &s)
{
    ReferenceDifferentialWorkload wl;
    wl.app = s.app;
    wl.cores = s.cores;
    wl.maxConns = s.maxConns;
    wl.concurrencyPerCore = s.concurrencyPerCore;
    wl.requestsPerConn = s.requestsPerConn;
    wl.seed = s.seed;
    wl.maxSimSec = s.maxSimSec;
    wl.faultPlan = s.faultPlan;
    wl.clientTimeoutSec = s.clientTimeoutSec;
    wl.clientRtoMsec = s.clientRtoMsec;

    for (const char *kernel : {"base2632", "fastsocket"}) {
        SCOPED_TRACE(kernel);
        Scenario run = s;
        run.kernel = kernel;
        const ReferenceKernelTotals ref = referenceRunOneKernel(
            wl,
            run.kernel == "base2632" ? KernelConfig::base2632()
                                     : KernelConfig::fastsocket(),
            kernel);
        const RunTotals now = runScenarioOnce(run);

        EXPECT_TRUE(now.drained);
        EXPECT_EQ(ref.drained, now.drained);
        EXPECT_EQ(ref.started, now.started);
        EXPECT_EQ(ref.completed, now.completed);
        EXPECT_EQ(ref.failed, now.failed);
        EXPECT_EQ(ref.timeouts, now.timeouts);
        EXPECT_EQ(ref.responses, now.responses);
        EXPECT_EQ(ref.bytesReceived, now.bytesReceived);
        EXPECT_EQ(ref.served, now.served);
        EXPECT_EQ(ref.drainTick, now.drainTick);
        EXPECT_EQ(ref.lockWaitTicks, now.lockWaitTicks);
        EXPECT_EQ(ref.busyTicks, now.busyTicks);
        EXPECT_EQ(ref.fingerprint, now.fingerprint);
        EXPECT_GT(now.invariants.checksRun, 0u);
        EXPECT_EQ(ref.invariants.checksRun, now.invariants.checksRun);
        EXPECT_EQ(ref.invariants.violationCount,
                  now.invariants.violationCount);
        EXPECT_EQ(ref.invariants.summary(), now.invariants.summary());
    }
}

/** diff_oracle's workload at --cores=4 --conns=1000. */
Scenario
oracleWorkload(AppKind app)
{
    Scenario s;
    s.app = app;
    s.cores = 4;
    s.maxConns = 1000;
    s.maxSimSec = 20.0;
    return s;
}

TEST(DifferentialDiff, NginxMatchesReference)
{
    expectSameRun(oracleWorkload(AppKind::kNginx));
}

TEST(DifferentialDiff, NginxLossBurstMatchesReference)
{
    Scenario s = oracleWorkload(AppKind::kNginx);
    s.faultPlan = "loss_burst@0-10:rate=0.25";
    s.clientTimeoutSec = 0.1;
    s.clientRtoMsec = 20.0;
    expectSameRun(s);
}

TEST(DifferentialDiff, HaproxyMatchesReference)
{
    expectSameRun(oracleWorkload(AppKind::kHaproxy));
}

TEST(DifferentialDiff, KeepAliveMatchesReference)
{
    Scenario s;
    s.cores = 2;
    s.maxSimSec = 20.0;
    s.maxConns = 300;
    s.requestsPerConn = 3;
    s.concurrencyPerCore = 25;
    expectSameRun(s);
}

} // anonymous namespace
} // namespace fsim
