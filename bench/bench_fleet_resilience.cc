/**
 * @file
 * Fleet resilience bench: N machines behind an L4 balancer tier under
 * orchestrated faults.
 *
 * Four scenarios, each on base-2.6.32 and Fastsocket, against a
 * 4-machine / 2-balancer fleet (consistent-hash steering with
 * bounded-load fallback, wire-level SYN health probes, full-NAT
 * forwarding over latency/bandwidth-modeled links):
 *
 *   - rolling-restart: a diurnal open-loop load curve while every
 *     server machine is drained, stopped, restarted and readmitted in
 *     sequence. Gates: request success ratio >= 99%, zero un-drained
 *     connection loss, every machine restarted exactly once.
 *   - machine-crash: one machine blackholes mid-run (cable pull) and
 *     comes back. Gates: the balancers eject it via probe failures and
 *     readmit it after restart; goodput recovers to >= 90% of the
 *     pre-fault level.
 *   - lb-failover: one balancer dies; the peer adopts its VIP after
 *     the takeover delay. Gates: >= 1 VIP takeover, goodput recovery
 *     >= 90%.
 *   - overload-cascade: an open-loop spike to far beyond fleet
 *     capacity with per-machine admission control armed. Gates: the
 *     shedding stays contained in the server tier — the balancer
 *     tier's flow table never overflows (shed_capacity == 0) and the
 *     health-probe view never loses the whole fleet
 *     (shed_no_backend == 0) — and goodput recovers after the spike.
 *
 * Every run's invariants must hold (checkLevel=periodic), and the
 * whole bench is deterministic for a fixed --seed: the CI smoke job
 * diffs two same-seed --json exports byte for byte.
 */

#include <cmath>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "harness/experiment.hh"
#include "sim/logging.hh"

namespace
{

using namespace fsim;

const char *kBenchName = "bench_fleet_resilience";

/** Per-machine admission/pressure stack for the cascade scenario
 *  (same shape as bench_overload's protection spec). */
const char *kProtectSpec =
    "budget=256,gate=48,deadline_ms=5,cap=256,brownout=1,"
    "health_bytes=32,high=0.004,critical=0.5,low=0.002";

struct Scenario
{
    const char *name;
    std::string plan;           //!< fleet fault plan, absolute sim times
    double openLoopRate = 0.0;  //!< 0 = closed loop
    double spikeRate = 0.0;     //!< mid-run setOpenLoopRate target
    bool diurnal = false;       //!< shape the open loop per sub-window
    bool overloadStack = false; //!< arm kProtectSpec on every machine
    /** @name Gates */
    /** @{ */
    bool gateSuccess99 = false;
    bool gateRecovery = false;
    bool gateEjectReadmit = false;
    bool gateTakeover = false;
    bool gateContainment = false;
    bool gateAllRestarted = false;
    /** @} */
};

std::string
windowStr(double start, double end, const char *fmt_tail)
{
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%.3f-%.3f%s", start, end, fmt_tail);
    return buf;
}

double
meanGoodput(const std::vector<LockWindow> &ws, std::size_t first,
            std::size_t last)
{
    double sum = 0.0;
    std::size_t n = 0;
    for (std::size_t i = first; i <= last && i < ws.size(); ++i, ++n)
        sum += ws[i].goodput;
    return n ? sum / static_cast<double>(n) : 0.0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    using namespace fsim;
    BenchArgs args = BenchArgs::parse(argc, argv);

    banner("Fleet resilience: rolling restarts, crashes, failover, "
           "cascade containment",
           "4 server machines behind 2 L4 balancers (consistent hash + "
           "bounded load + health probes).\nExpected: planned drains "
           "lose nothing, crashed machines are ejected and readmitted, "
           "a dead balancer's VIP fails over,\nand server-tier "
           "overload shedding never cascades into the balancer tier.");

    const int nMachines = 4;
    // 12 sub-windows; disruptive faults span sub-windows 4..7 (the
    // rolling sweep starts at window 2 so 4 drain+down cycles fit).
    const double warmup = args.quick ? 0.02 : 0.03;
    const double winLen = args.quick ? 0.015 : 0.03;
    const int nWin = 12;
    const double fs = warmup + 4 * winLen;
    const double fe = warmup + 8 * winLen;
    const double rollStart = warmup + 2 * winLen;
    // Aggregate open-loop rates: the steady rate keeps the 4-machine
    // fleet comfortably below saturation; the spike is sized to push
    // every machine's admission stack deep into shedding.
    const double steadyRate = args.quick ? 40'000.0 : 80'000.0;
    // The spike must clear the 4-machine fleet's capacity (~300-400K/s
    // at 4 cores each) by a wide margin or the cascade gate is vacuous.
    const double spikeRate = args.quick ? 900'000.0 : 1'200'000.0;

    const Scenario scenarios[] = {
        {"rolling-restart",
         "rolling_restart@" +
             windowStr(rollStart, rollStart + 0.001,
                       ":drain_ms=15,down_ms=5"),
         steadyRate, 0.0, /*diurnal=*/true, false,
         /*gateSuccess99=*/true, false, false, false, false,
         /*gateAllRestarted=*/true},
        {"machine-crash",
         "machine_crash@" + windowStr(fs, fe, ":target=1,mode=blackhole"),
         0.0, 0.0, false, false,
         false, /*gateRecovery=*/true, /*gateEjectReadmit=*/true,
         false, false, false},
        {"lb-failover",
         "lb_crash@" + windowStr(fs, fe, ":target=0"),
         0.0, 0.0, false, false,
         false, /*gateRecovery=*/true, false, /*gateTakeover=*/true,
         false, false},
        {"overload-cascade", "",
         steadyRate, spikeRate, false, /*overloadStack=*/true,
         false, /*gateRecovery=*/true, false, false,
         /*gateContainment=*/true, false},
    };
    const KernelUnderTest kernels[2] = {kKernels[0], kKernels[2]};

    // An explicit --faults plan replaces every scenario's plan; the
    // gates assume the built-in windows, so they are reported but not
    // enforced in that mode.
    const bool userPlan = !args.faults.empty();

    BenchJsonReport json("fleet_resilience");
    int rc = 0;

    for (const Scenario &sc : scenarios) {
        std::printf("--- scenario %s ---\n", sc.name);
        for (const KernelUnderTest &k : kernels) {
            FleetConfig fc;
            fc.serverMachines = nMachines;
            fc.balancers = 2;
            fc.base.app = AppKind::kNginx;
            fc.base.machine.cores = 4;
            fc.base.machine.kernel = k.config;
            fc.base.machine.traceEnabled = args.trace;
            fc.base.concurrencyPerCore = 50;
            fc.base.warmupSec = warmup;
            fc.base.measureSec = nWin * winLen;
            fc.base.statWindows = nWin;
            fc.base.checkLevel = CheckLevel::kPeriodic;
            fc.base.clientTimeout = ticksFromSeconds(0.08);
            // Flow-table sizing is part of the containment story: a
            // SYN the server tier silently gates out leaves a
            // half-open flow pinned until the client's 80ms give-up,
            // so the table must hold offered * give-up / balancers
            // (1.2M/s * 0.08s / 2 = 48K) or the spike evicts real
            // flows. NAT port space caps a balancer at 63487.
            fc.maxFlowsPerBalancer = 60'000;
            // Clients retransmit SYNs/requests: a connection steered
            // into a blackhole (dead machine, headless VIP) retries at
            // +15/+30ms and lands on the recovered path instead of
            // pinning its closed-loop slot for the full 80ms give-up.
            fc.base.clientRtoBase = ticksFromUsec(15000);
            // 1ms of probe grace is too tight when the machines run at
            // closed-loop saturation: handshake replies queue behind
            // softirq work and spurious ejections flap the target set.
            fc.probeTimeoutMsec = 1.8;
            fc.openLoopRate = sc.openLoopRate;
            if (!sc.plan.empty()) {
                std::string perr;
                bool ok = parseFaultPlan(sc.plan, fc.base.faults, perr);
                fsim_assert(ok && "scenario plans are hand-written");
            }
            if (sc.overloadStack) {
                std::string oerr;
                bool ok = parseOverloadSpec(
                    kProtectSpec, fc.base.machine.overload, oerr);
                fsim_assert(ok && "built-in overload spec must parse");
            }
            if (userPlan)
                args.apply(fc.base);
            else if (args.seed != 0)
                fc.base.machine.seed = args.seed;

            FleetTestbed bed(fc);

            // Shape the open loop before run(): a stepped diurnal
            // curve for the rolling restart, a square spike over the
            // fault window for the cascade scenario.
            if (sc.diurnal) {
                static const double curve[] = {0.6, 0.8, 1.0, 1.2,
                                               1.0, 0.8};
                for (int w = 0; w < nWin; ++w) {
                    const double mult = curve[w % 6];
                    bed.eventQueue().schedule(
                        ticksFromSeconds(warmup + w * winLen),
                        [&bed, mult, steadyRate] {
                            bed.load().setOpenLoopRate(steadyRate *
                                                       mult);
                        });
                }
            }
            if (sc.spikeRate > 0.0) {
                bed.eventQueue().schedule(
                    ticksFromSeconds(fs), [&bed, &sc] {
                        bed.load().setOpenLoopRate(sc.spikeRate);
                    });
                bed.eventQueue().schedule(
                    ticksFromSeconds(fe), [&bed, &sc] {
                        bed.load().setOpenLoopRate(sc.openLoopRate);
                    });
            }

            ExperimentResult r = bed.run();
            json.addRow(std::string(sc.name) + "/" + k.name, fc.base,
                        r);

            std::printf("%-12s goodput/s by sub-window:", k.name);
            for (const LockWindow &w : r.lockWindows)
                std::printf(" %5.0fK", w.goodput / 1000.0);
            std::printf("\n");
            const FleetResult &fl = r.fleet;
            std::printf(
                "%-12s fleet: success %.2f%%, flows %llu/%llu "
                "(undrained %llu), ejections %llu, readmissions %llu, "
                "takeovers %llu, shed cap/nb %llu/%llu\n",
                "", 100.0 * fl.requestSuccessRatio,
                static_cast<unsigned long long>(fl.flowsRetired),
                static_cast<unsigned long long>(fl.flowsCreated),
                static_cast<unsigned long long>(fl.undrainedFlows),
                static_cast<unsigned long long>(fl.ejections),
                static_cast<unsigned long long>(fl.readmissions),
                static_cast<unsigned long long>(fl.vipTakeovers),
                static_cast<unsigned long long>(fl.shedCapacity),
                static_cast<unsigned long long>(fl.shedNoBackend));

            // Windows 0..3 precede the fault (0 discarded as ramp),
            // 4..7 overlap it, 8..11 follow it (8 discarded as drain).
            double pre = meanGoodput(r.lockWindows, 1, 3);
            double post = meanGoodput(r.lockWindows, 9, 11);
            double ratio = pre > 0.0 ? post / pre : 0.0;
            std::printf("%-12s pre %.0fK  post %.0fK  recovery "
                        "%.0f%%  [%s]\n",
                        "", pre / 1000.0, post / 1000.0, 100.0 * ratio,
                        r.invariants.summary().c_str());

            if (r.invariants.violationCount > 0) {
                printGateFailure(kBenchName, args, fc.base,
                                 "invariant violations: " +
                                     r.invariants.summary());
                rc = 1;
            }
            if (userPlan)
                continue;
            char msg[160];
            if (sc.gateSuccess99 && fl.requestSuccessRatio < 0.99) {
                std::snprintf(msg, sizeof(msg),
                              "request success %.2f%% under rolling "
                              "restart (< 99%%)",
                              100.0 * fl.requestSuccessRatio);
                printGateFailure(kBenchName, args, fc.base, msg);
                rc = 1;
            }
            if (sc.gateSuccess99 && fl.undrainedFlows != 0) {
                std::snprintf(msg, sizeof(msg),
                              "%llu un-drained flows lost during "
                              "planned restarts",
                              static_cast<unsigned long long>(
                                  fl.undrainedFlows));
                printGateFailure(kBenchName, args, fc.base, msg);
                rc = 1;
            }
            if (sc.gateAllRestarted &&
                fl.restarts != static_cast<std::uint64_t>(nMachines)) {
                std::snprintf(msg, sizeof(msg),
                              "rolling restart covered %llu of %d "
                              "machines",
                              static_cast<unsigned long long>(
                                  fl.restarts),
                              nMachines);
                printGateFailure(kBenchName, args, fc.base, msg);
                rc = 1;
            }
            if (sc.gateRecovery && ratio < 0.9) {
                std::snprintf(msg, sizeof(msg),
                              "post-fault goodput %.0f%% of pre-fault "
                              "(< 90%%)",
                              100.0 * ratio);
                printGateFailure(kBenchName, args, fc.base, msg);
                rc = 1;
            }
            if (sc.gateEjectReadmit &&
                (fl.ejections == 0 || fl.readmissions == 0)) {
                std::snprintf(msg, sizeof(msg),
                              "crash not tracked by health probes "
                              "(%llu ejections, %llu readmissions)",
                              static_cast<unsigned long long>(
                                  fl.ejections),
                              static_cast<unsigned long long>(
                                  fl.readmissions));
                printGateFailure(kBenchName, args, fc.base, msg);
                rc = 1;
            }
            if (sc.gateTakeover && fl.vipTakeovers == 0) {
                printGateFailure(kBenchName, args, fc.base,
                                 "balancer loss produced no VIP "
                                 "takeover");
                rc = 1;
            }
            if (sc.gateContainment &&
                (fl.shedCapacity != 0 || fl.shedNoBackend != 0)) {
                std::snprintf(
                    msg, sizeof(msg),
                    "overload cascaded into the balancer tier "
                    "(shed_capacity=%llu, shed_no_backend=%llu)",
                    static_cast<unsigned long long>(fl.shedCapacity),
                    static_cast<unsigned long long>(fl.shedNoBackend));
                printGateFailure(kBenchName, args, fc.base, msg);
                rc = 1;
            }
        }
        std::printf("\n");
    }

    std::printf("fleet_resilience: %s\n", rc == 0 ? "PASS" : "FAIL");
    finishJson(args, json);
    return rc;
}
