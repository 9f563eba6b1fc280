/**
 * @file
 * Distributed-trace context survival across the balancer tier.
 *
 * The 64-bit trace id a client mints must ride every packet through
 * the L4 NAT rewrite and come back out attached to the server
 * machine's connection span — across steady service, a VIP failover
 * mid-flow, and a rolling-restart drain — on both kernels, without
 * perturbing the behavioral fingerprint.
 */

#include <gtest/gtest.h>

#include "fault/fault_injector.hh"
#include "harness/experiment.hh"

namespace fsim
{
namespace
{

FleetConfig
tracedFleet(const KernelConfig &kernel)
{
    FleetConfig fc;
    fc.serverMachines = 3;
    fc.balancers = 2;
    fc.base.app = AppKind::kNginx;
    fc.base.machine.cores = 2;
    fc.base.machine.kernel = kernel;
    fc.base.machine.traceEnabled = true;
    fc.base.concurrencyPerCore = 20;
    fc.base.warmupSec = 0.005;
    fc.base.measureSec = 0.04;
    fc.base.statWindows = 4;
    fc.base.checkLevel = CheckLevel::kPeriodic;
    fc.base.clientTimeout = ticksFromMsec(30);
    fc.base.clientRtoBase = ticksFromUsec(8000);
    // Open loop so the launcher can be stopped for the settle phase
    // (a closed loop would relaunch forever and race the FIN gates).
    fc.openLoopRate = 30'000.0;
    return fc;
}

/** Stop launching, drain in-flight teardowns, re-collect. Without
 *  this, requests finishing in the last RTT legitimately lack a
 *  server span and the lossless-stitching checks would race. */
ExperimentResult
settle(FleetTestbed &bed)
{
    bed.load().setOpenLoopRate(0.0);
    bed.runUntilChecked(bed.eventQueue().now() + ticksFromMsec(20));
    return bed.collect();
}

/** Successful client requests with no server-machine span: must be
 *  zero after settle — every served request was served by SOMEONE. */
std::uint64_t
unstitchedOk(const FleetTraceLog &log)
{
    std::uint64_t n = 0;
    for (const auto &kv : log.records())
        if (kv.second.clientDone && kv.second.ok && !kv.second.stitched)
            ++n;
    return n;
}

const KernelConfig kBothKernels[2] = {KernelConfig::base2632(),
                                      KernelConfig::fastsocket()};

TEST(FleetTrace, ClientTraceIdSurvivesNatRewriteBothKernels)
{
    for (const KernelConfig &k : kBothKernels) {
        FleetTestbed bed(tracedFleet(k));
        bed.run();
        ExperimentResult r = settle(bed);

        const FleetTraceLog &log = bed.traceLog();
        EXPECT_GT(r.fleet.tracesStarted, 500u);
        // Exact accounting: every launched connection minted a trace,
        // every finished one closed it.
        EXPECT_EQ(r.fleet.tracesStarted, bed.load().started());
        EXPECT_EQ(r.fleet.tracesCompleted,
                  bed.load().completed() + bed.load().failed());
        // Lossless stitching through the NAT rewrite: no successful
        // request is missing its balancer hop or its server span, and
        // no trace id was seen born twice.
        EXPECT_EQ(r.fleet.traceOrphans, 0u);
        EXPECT_EQ(r.fleet.traceDuplicates, 0u);
        EXPECT_EQ(unstitchedOk(log), 0u);
        EXPECT_GT(r.fleet.tracesStitched, 0u);
        // The span a trace stitched came from a real TCB whose id the
        // balancer could only have learned from the client's packet.
        for (const FleetTrace *tr : log.sortedCompleted()) {
            if (tr->ok) {
                EXPECT_GE(tr->lbFlows, 1u);
            }
        }
        EXPECT_EQ(r.fleet.spanReconcileViolations, 0u);
        EXPECT_EQ(r.invariants.violationCount, 0u)
            << r.invariants.summary();
    }
}

TEST(FleetTrace, VipFailoverMidFlowKeepsTracesLossless)
{
    for (const KernelConfig &k : kBothKernels) {
        FleetConfig fc = tracedFleet(k);
        std::string err;
        ASSERT_TRUE(parseFaultPlan("lb_crash@0.015-0.03:target=0",
                                   fc.base.faults, err))
            << err;
        FleetTestbed bed(fc);
        bed.run();
        ExperimentResult r = settle(bed);

        // The fault actually exercised the takeover path.
        EXPECT_GE(r.fleet.lbCrashes, 1u);
        EXPECT_GE(r.fleet.vipTakeovers, 1u);
        // Flows re-NATted by the surviving balancer keep the client's
        // trace id: nothing orphans, nothing double-starts, and every
        // served request still joined a server span.
        EXPECT_EQ(r.fleet.traceOrphans, 0u);
        EXPECT_EQ(r.fleet.traceDuplicates, 0u);
        EXPECT_EQ(unstitchedOk(bed.traceLog()), 0u);
        EXPECT_EQ(r.fleet.tracesStarted, bed.load().started());
        EXPECT_EQ(r.invariants.violationCount, 0u)
            << r.invariants.summary();
    }
}

TEST(FleetTrace, RollingRestartDrainKeepsTracesStitched)
{
    for (const KernelConfig &k : kBothKernels) {
        FleetTestbed bed(tracedFleet(k));
        EventQueue &eq = bed.eventQueue();
        bed.startLoad();
        bed.runUntilChecked(ticksFromMsec(5));
        bed.beginRollingRestart(/*drainDeadline=*/ticksFromMsec(10),
                                /*downtime=*/ticksFromMsec(2));
        bed.runUntilChecked(eq.now() + ticksFromMsec(60));
        EXPECT_FALSE(bed.rollingRestartActive());
        ExperimentResult r = settle(bed);

        EXPECT_EQ(bed.restarts(),
                  static_cast<std::uint64_t>(bed.machineCount()));
        // Spans served by pre-restart generations still stitch: the
        // zombie generation's trace log outlives its machine.
        EXPECT_EQ(r.fleet.traceOrphans, 0u);
        EXPECT_EQ(r.fleet.traceDuplicates, 0u);
        EXPECT_EQ(unstitchedOk(bed.traceLog()), 0u);
        EXPECT_EQ(r.fleet.tracesStarted, bed.load().started());
        EXPECT_EQ(r.fleet.spanReconcileViolations, 0u);
        EXPECT_EQ(r.invariants.violationCount, 0u)
            << r.invariants.summary();
    }
}

TEST(FleetTrace, TracingNeverPerturbsTheFingerprintBothKernels)
{
    for (const KernelConfig &k : kBothKernels) {
        FleetConfig on = tracedFleet(k);
        FleetConfig off = tracedFleet(k);
        off.base.machine.traceEnabled = false;

        FleetTestbed bedOn(on);
        FleetTestbed bedOff(off);
        ExperimentResult rOn = bedOn.run();
        ExperimentResult rOff = bedOff.run();
        // Trace context rides the packets either way; recording it is
        // observation only. Same seed, same behavior, bit-identical.
        EXPECT_EQ(rOn.fingerprint, rOff.fingerprint);
        EXPECT_EQ(bedOn.currentFingerprint(), bedOff.currentFingerprint());

        // And tracing itself is deterministic: a second traced run
        // reproduces the stitching counters exactly.
        FleetTestbed bedOn2(on);
        ExperimentResult rOn2 = bedOn2.run();
        EXPECT_EQ(rOn.fingerprint, rOn2.fingerprint);
        EXPECT_EQ(rOn.fleet.tracesStarted, rOn2.fleet.tracesStarted);
        EXPECT_EQ(rOn.fleet.tracesStitched, rOn2.fleet.tracesStitched);
        EXPECT_EQ(rOn.fleet.tracesCompleted,
                  rOn2.fleet.tracesCompleted);
    }
}

} // namespace
} // namespace fsim
