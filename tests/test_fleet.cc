/**
 * @file
 * Fleet-tier integration: N machines behind the L4 balancer tier.
 *
 * Covers the FleetTestbed orchestration surface — steering, drain
 * semantics, crash/restart with probe-driven ejection and readmission,
 * VIP failover — plus fingerprint determinism on both kernels, and the
 * single-machine Proxy's health breaker when a *backend machine*
 * disappears mid-connection (full packet loss, not a brownout).
 */

#include <gtest/gtest.h>

#include "app/proxy.hh"
#include "harness/experiment.hh"

namespace fsim
{
namespace
{

FleetConfig
smallFleet(const KernelConfig &kernel, int machines = 3,
           int balancers = 2)
{
    FleetConfig fc;
    fc.serverMachines = machines;
    fc.balancers = balancers;
    fc.base.app = AppKind::kNginx;
    fc.base.machine.cores = 2;
    fc.base.machine.kernel = kernel;
    fc.base.machine.traceEnabled = false;
    fc.base.concurrencyPerCore = 20;
    fc.base.warmupSec = 0.005;
    fc.base.measureSec = 0.04;
    fc.base.statWindows = 4;
    fc.base.checkLevel = CheckLevel::kPeriodic;
    fc.base.clientTimeout = ticksFromMsec(30);
    fc.base.clientRtoBase = ticksFromUsec(8000);
    return fc;
}

const KernelConfig kBothKernels[2] = {KernelConfig::base2632(),
                                      KernelConfig::fastsocket()};

TEST(Fleet, AddressPlanDoesNotOverlap)
{
    // 64 machines x 256 addrs, 8 VIPs, 8 NAT addrs: all disjoint.
    EXPECT_LT(FleetTestbed::machineBase(63) + 0xff,
              FleetTestbed::natAddr(0));
    EXPECT_LT(FleetTestbed::natAddr(7), FleetTestbed::vipAddr(0));
    for (int s = 1; s < 64; ++s)
        EXPECT_GE(FleetTestbed::machineBase(s),
                  FleetTestbed::machineBase(s - 1) + 0x100);
}

TEST(Fleet, EndToEndServiceAndFlowConservationBothKernels)
{
    for (const KernelConfig &k : kBothKernels) {
        FleetTestbed bed(smallFleet(k));
        ExperimentResult r = bed.run();
        EXPECT_GT(r.served, 500u);
        EXPECT_TRUE(r.fleet.enabled);
        EXPECT_GT(r.fleet.flowsCreated, 0u);
        EXPECT_EQ(r.fleet.flowsCreated,
                  r.fleet.flowsRetired + r.fleet.flowsActive);
        EXPECT_EQ(r.invariants.violationCount, 0u)
            << r.invariants.summary();
        // Consistent hash spreads flows across every machine.
        for (int s = 0; s < bed.machineCount(); ++s) {
            std::uint64_t on = 0;
            for (int b = 0; b < bed.balancerCount(); ++b)
                on += bed.balancer(b).activeFlows(s);
            EXPECT_TRUE(bed.machineUp(s));
            (void)on;
        }
    }
}

TEST(Fleet, SameSeedSameFingerprintBothKernels)
{
    for (const KernelConfig &k : kBothKernels) {
        FleetConfig fc = smallFleet(k);
        FleetTestbed a(fc);
        FleetTestbed b(fc);
        ExperimentResult ra = a.run();
        ExperimentResult rb = b.run();
        EXPECT_EQ(ra.fingerprint, rb.fingerprint);
        EXPECT_EQ(a.currentFingerprint(), b.currentFingerprint());

        FleetConfig other = fc;
        other.base.machine.seed += 17;
        FleetTestbed c(other);
        ExperimentResult rc = c.run();
        EXPECT_NE(ra.fingerprint, rc.fingerprint);
    }
}

TEST(Fleet, RollingRestartDrainsEveryMachineWithoutLoss)
{
    for (const KernelConfig &k : kBothKernels) {
        FleetTestbed bed(smallFleet(k));
        EventQueue &eq = bed.eventQueue();
        bed.startLoad();
        bed.runUntilChecked(ticksFromMsec(5));
        bed.beginRollingRestart(/*drainDeadline=*/ticksFromMsec(10),
                                /*downtime=*/ticksFromMsec(2));
        EXPECT_TRUE(bed.rollingRestartActive());
        bed.runUntilChecked(eq.now() + ticksFromMsec(60));
        EXPECT_FALSE(bed.rollingRestartActive());
        EXPECT_EQ(bed.restarts(),
                  static_cast<std::uint64_t>(bed.machineCount()));
        ExperimentResult r = bed.collect();
        // Planned drains wait for in-flight flows: nothing is killed.
        EXPECT_EQ(r.fleet.undrainedFlows, 0u);
        EXPECT_EQ(r.fleet.drainsStarted, r.fleet.drainsCompleted);
        EXPECT_EQ(r.fleet.drainsCompleted,
                  static_cast<std::uint64_t>(bed.machineCount() *
                                             bed.balancerCount()));
        // Every machine came back and was readmitted by probes.
        for (int s = 0; s < bed.machineCount(); ++s) {
            EXPECT_TRUE(bed.machineUp(s));
            for (int b = 0; b < bed.balancerCount(); ++b)
                EXPECT_TRUE(bed.balancer(b).healthy(s));
        }
        EXPECT_EQ(r.invariants.violationCount, 0u)
            << r.invariants.summary();
    }
}

TEST(Fleet, BlackholeCrashIsEjectedAndReadmittedAfterRestart)
{
    for (const KernelConfig &k : kBothKernels) {
        FleetTestbed bed(smallFleet(k));
        EventQueue &eq = bed.eventQueue();
        bed.startLoad();
        bed.runUntilChecked(ticksFromMsec(5));

        bed.crashMachine(1, FaultEvent::CrashMode::kBlackhole);
        EXPECT_FALSE(bed.machineUp(1));
        // Probe failures must mark the target down on every balancer.
        bed.runUntilChecked(eq.now() + ticksFromMsec(15));
        for (int b = 0; b < bed.balancerCount(); ++b)
            EXPECT_FALSE(bed.balancer(b).healthy(1));

        const std::uint64_t beforeRestart = bed.load().completed();
        bed.restartMachine(1);
        bed.runUntilChecked(eq.now() + ticksFromMsec(20));
        EXPECT_TRUE(bed.machineUp(1));
        for (int b = 0; b < bed.balancerCount(); ++b)
            EXPECT_TRUE(bed.balancer(b).healthy(1));
        EXPECT_GT(bed.load().completed(), beforeRestart);

        ExperimentResult r = bed.collect();
        EXPECT_EQ(r.fleet.crashes, 1u);
        EXPECT_EQ(r.fleet.restarts, 1u);
        EXPECT_GE(r.fleet.ejections,
                  static_cast<std::uint64_t>(bed.balancerCount()));
        EXPECT_GE(r.fleet.readmissions,
                  static_cast<std::uint64_t>(bed.balancerCount()));
        EXPECT_GT(r.fleet.blackholed, 0u)
            << "a blackhole corpse must swallow in-flight packets";
        EXPECT_EQ(r.invariants.violationCount, 0u)
            << r.invariants.summary();
    }
}

TEST(Fleet, RstCrashAnswersInFlightPacketsWithResets)
{
    FleetTestbed bed(smallFleet(KernelConfig::fastsocket()));
    EventQueue &eq = bed.eventQueue();
    bed.startLoad();
    bed.runUntilChecked(ticksFromMsec(5));
    bed.crashMachine(0, FaultEvent::CrashMode::kRst);
    bed.runUntilChecked(eq.now() + ticksFromMsec(10));
    ExperimentResult r = bed.collect();
    EXPECT_GT(r.fleet.corpseRsts, 0u)
        << "an rst-mode corpse must answer in-flight packets";
    EXPECT_EQ(r.fleet.blackholed, 0u);
}

TEST(Fleet, BalancerCrashFailsVipOverToPeer)
{
    for (const KernelConfig &k : kBothKernels) {
        FleetTestbed bed(smallFleet(k));
        EventQueue &eq = bed.eventQueue();
        bed.startLoad();
        bed.runUntilChecked(ticksFromMsec(5));

        bed.crashBalancer(0);
        // Past the takeover delay the peer owns VIP 0; the closed loop
        // must keep completing connections addressed to it.
        bed.runUntilChecked(eq.now() + ticksFromMsec(10));
        EXPECT_EQ(bed.vipTakeovers(), 1u);
        const std::uint64_t mid = bed.load().completed();
        bed.runUntilChecked(eq.now() + ticksFromMsec(10));
        EXPECT_GT(bed.load().completed(), mid);

        bed.restoreBalancer(0);
        bed.runUntilChecked(eq.now() + ticksFromMsec(10));
        ExperimentResult r = bed.collect();
        EXPECT_EQ(r.fleet.lbCrashes, 1u);
        EXPECT_EQ(r.fleet.vipTakeovers, 1u);
        EXPECT_EQ(r.invariants.violationCount, 0u)
            << r.invariants.summary();
    }
}

TEST(Fleet, CrashedBalancerReportsItsDownDrops)
{
    // A crash blackholes the balancer's own VIP and NAT addresses, but
    // a VIP it adopted from a crashed peer still lands on it. Crash
    // balancer 0, let balancer 1 adopt VIP 0, then crash balancer 1:
    // every VIP-0 packet balancer 1 swallows while down must reach the
    // fleet block as down_drops.
    FleetTestbed bed(smallFleet(KernelConfig::fastsocket()));
    EventQueue &eq = bed.eventQueue();
    bed.startLoad();
    bed.runUntilChecked(ticksFromMsec(5));
    bed.crashBalancer(0);
    bed.runUntilChecked(eq.now() + ticksFromMsec(10));
    ASSERT_EQ(bed.vipTakeovers(), 1u);
    bed.crashBalancer(1);
    bed.runUntilChecked(eq.now() + ticksFromMsec(5));
    bed.restoreBalancer(0);
    bed.restoreBalancer(1);
    bed.runUntilChecked(eq.now() + ticksFromMsec(5));

    ExperimentResult r = bed.collect();
    std::uint64_t perBalancer = 0;
    for (int b = 0; b < bed.balancerCount(); ++b)
        perBalancer += bed.balancer(b).counters().downDrops;
    EXPECT_GT(r.fleet.downDrops, 0u);
    EXPECT_EQ(r.fleet.downDrops, perBalancer);
}

TEST(Fleet, DrainRefusesNewFlowsAndCompletesInFlight)
{
    FleetTestbed bed(smallFleet(KernelConfig::fastsocket()));
    EventQueue &eq = bed.eventQueue();
    bed.startLoad();
    bed.runUntilChecked(ticksFromMsec(5));

    for (int b = 0; b < bed.balancerCount(); ++b)
        bed.balancer(b).startDrain(1);
    // Give in-flight flows ample time to finish, then settle the drain.
    bed.runUntilChecked(eq.now() + ticksFromMsec(10));
    for (int b = 0; b < bed.balancerCount(); ++b) {
        EXPECT_EQ(bed.balancer(b).activeFlows(1), 0u)
            << "a draining target must bleed to zero active flows";
        EXPECT_EQ(bed.balancer(b).finishDrain(1), 0u);
    }
    // Service continued on the remaining machines throughout.
    const std::uint64_t before = bed.load().completed();
    bed.runUntilChecked(eq.now() + ticksFromMsec(5));
    EXPECT_GT(bed.load().completed(), before);
}

TEST(Fleet, BalancerConfigValidationDies)
{
    EventQueue eq;
    Wire fabric(eq, ticksFromUsec(10));
    L4Balancer::Config base;
    base.vip = FleetTestbed::vipAddr(0);
    base.natIp = FleetTestbed::natAddr(0);

    // Flow table must fit the NAT-allocatable port span.
    L4Balancer::Config noFlows = base;
    noFlows.maxFlows = 0;
    EXPECT_DEATH({ L4Balancer lb(eq, fabric, noFlows); (void)lb; },
                 "maxFlows");

    // Each probe must resolve before the next round fires.
    L4Balancer::Config lateProbe = base;
    lateProbe.probeInterval = ticksFromMsec(2);
    lateProbe.probeTimeout = ticksFromMsec(2);
    EXPECT_DEATH({ L4Balancer lb(eq, fabric, lateProbe); (void)lb; },
                 "probeTimeout");

    // Score mode is built from probe evidence; probing can't be off.
    L4Balancer::Config blindScore = base;
    blindScore.healthMode = L4Balancer::HealthMode::kScore;
    blindScore.probeInterval = 0;
    EXPECT_DEATH({ L4Balancer lb(eq, fabric, blindScore); (void)lb; },
                 "requires probing");
}

TEST(Fleet, NoBalancerTierOnlyForOneMachine)
{
    // balancers == 0 is the fleet of one; more machines need a tier to
    // steer between them.
    FleetConfig twoBare = smallFleet(KernelConfig::fastsocket(), 2, 0);
    EXPECT_DEATH({ FleetTestbed bed(twoBare); (void)bed; },
                 "serverMachines=2 balancers=0");
    FleetConfig none = smallFleet(KernelConfig::fastsocket(), 0, 1);
    EXPECT_DEATH({ FleetTestbed bed(none); (void)bed; },
                 "serverMachines=0 balancers=1");

    FleetTestbed one(smallFleet(KernelConfig::fastsocket(), 1, 0));
    EXPECT_EQ(one.machineCount(), 1);
    EXPECT_EQ(one.balancerCount(), 0);
    EXPECT_FALSE(one.run().fleet.enabled);
}

/**
 * A flapping gray machine (healthy<->degraded every half flap period)
 * must be held out by hysteresis, not ejected and readmitted once per
 * flap cycle: the clear streak resets every time a degraded half-period
 * taints a probe round, so readmission waits for the fault to end.
 */
TEST(Fleet, FlappingDegradeHoldsEjectionWithoutOscillating)
{
    for (const KernelConfig &k : kBothKernels) {
        FleetConfig fc = smallFleet(k);
        fc.healthMode = L4Balancer::HealthMode::kScore;
        fc.base.measureSec = 0.055;
        std::string err;
        // 24ms flapping degrade on machine 1: ~5ms flap period against
        // 2ms probe rounds, so probes sample both phases.
        ASSERT_TRUE(parseFaultPlan(
            "machine_degrade@0.008-0.032:"
            "target=1,factor=3,rate=0.25,jitter=600,flap_ms=5",
            fc.base.faults, err))
            << err;

        FleetTestbed bed(fc);
        ExperimentResult r = bed.run();
        EXPECT_GT(r.fleet.flapTransitions, 0u) << "flap transitions must fire";
        const std::uint64_t lbs =
            static_cast<std::uint64_t>(bed.balancerCount());
        // Detected at all...
        EXPECT_GE(r.fleet.scoreEjections, lbs)
            << "every balancer should eject the flapping machine once";
        // ...but held: ~5 flap cycles must not each cost an ejection.
        EXPECT_LE(r.fleet.scoreEjections, 2 * lbs)
            << "hysteresis failed: one ejection per flap cycle";
        EXPECT_GE(r.fleet.readmissions, lbs);
        // The fault cleared 23ms before the run ended: readmitted.
        for (int b = 0; b < bed.balancerCount(); ++b)
            EXPECT_TRUE(bed.balancer(b).healthy(1));
        EXPECT_EQ(r.invariants.violationCount, 0u)
            << r.invariants.summary();
    }
}

TEST(Fleet, DegradeAndPartitionKeepSameSeedRunsIdentical)
{
    for (const KernelConfig &k : kBothKernels) {
        FleetConfig fc = smallFleet(k);
        fc.healthMode = L4Balancer::HealthMode::kScore;
        std::string err;
        ASSERT_TRUE(parseFaultPlan(
            "machine_degrade@0.008-0.030:"
            "target=1,factor=2.5,rate=0.1,jitter=500,flap_ms=5;"
            "net_partition@0.012-0.025:a=lb0,b=m2",
            fc.base.faults, err))
            << err;

        FleetTestbed a(fc);
        FleetTestbed b(fc);
        ExperimentResult ra = a.run();
        ExperimentResult rb = b.run();
        EXPECT_EQ(ra.fingerprint, rb.fingerprint)
            << "degrade/partition arming must stay deterministic";
        EXPECT_GT(ra.fleet.degradesApplied, 0u);
        EXPECT_GT(ra.fleet.partitionDropped, 0u)
            << "the partition window should blackhole lb0<->m2 traffic";

        FleetConfig other = fc;
        other.base.machine.seed += 29;
        FleetTestbed c(other);
        ExperimentResult rc = c.run();
        EXPECT_NE(ra.fingerprint, rc.fingerprint);
    }
}

/**
 * Satellite coverage: the single-machine Proxy's health breaker when a
 * backend machine is lost outright mid-connection. The outage starts
 * while sessions are in flight, so their backend legs go half-open and
 * must be accounted as timeouts (not leaked); after the machine comes
 * back, probe traffic readmits it.
 */
TEST(Fleet, ProxyEjectsAndReadmitsLostBackendMachineBothKernels)
{
    for (const KernelConfig &k : kBothKernels) {
        ExperimentConfig cfg;
        cfg.app = AppKind::kHaproxy;
        cfg.machine.cores = 2;
        cfg.machine.kernel = k;
        cfg.machine.traceEnabled = false;
        cfg.concurrencyPerCore = 30;
        cfg.backendCount = 2;
        cfg.backendTimeout = ticksFromMsec(2);
        cfg.clientTimeout = ticksFromMsec(20);
        cfg.warmupSec = 0.01;   // sessions in flight before the loss
        cfg.measureSec = 0.08;
        cfg.checkLevel = CheckLevel::kPeriodic;
        std::string err;
        // Backend machine 0 vanishes at t=10ms (mid-connection for the
        // warmed-up closed loop) and returns at t=50ms.
        ASSERT_TRUE(parseFaultPlan("backend_down@0.01-0.05:target=0",
                                   cfg.faults, err))
            << err;

        Testbed bed(cfg);
        ExperimentResult r = bed.run();
        auto *px = dynamic_cast<Proxy *>(&bed.app());
        ASSERT_NE(px, nullptr);

        // Half-open backend legs are accounted, not leaked: the legs
        // cut mid-exchange surface as timeouts, and the breaker trips.
        EXPECT_GT(px->backendTimeouts(), 0u);
        EXPECT_GE(px->backendEjections(), 1u);
        // Recovery: the machine is probed back in and ends admitted.
        EXPECT_GE(px->backendReadmissions(), 1u);
        EXPECT_FALSE(px->backendEjected(0))
            << "backend 0 must be readmitted after the outage ends";
        EXPECT_FALSE(px->backendEjected(1));
        // The un-lost backend carried the fleet through the outage.
        EXPECT_GT(r.served, 200u);
        EXPECT_EQ(r.invariants.violationCount, 0u)
            << r.invariants.summary();
    }
}

} // anonymous namespace
} // namespace fsim
