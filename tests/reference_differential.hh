/**
 * @file
 * The differential oracle's own bounded-run driver as it shipped before
 * the oracle ran Scenarios, kept verbatim as a test oracle.
 *
 * Until then src/check drove a bounded workload twice: runOneKernel()
 * here for the differential oracle, and the scenario fuzzer's run loop
 * for everything else. The oracle now runs two Scenarios through
 * runScenarioOnce(). test_differential_diff.cc runs this reference and
 * the new path on the oracle's workloads and requires every total,
 * fingerprint and check count to agree. Do not "improve" it: its value
 * is that it stays the old code, line for line (only the names carry a
 * Reference prefix).
 */

#ifndef FSIM_TESTS_REFERENCE_DIFFERENTIAL_HH
#define FSIM_TESTS_REFERENCE_DIFFERENTIAL_HH

#include <algorithm>
#include <cstdint>
#include <string>

#include "check/invariants.hh"
#include "fault/fault_plan.hh"
#include "harness/experiment.hh"
#include "sim/logging.hh"

namespace fsim
{

/** A bounded workload both kernels must serve to completion. */
struct ReferenceDifferentialWorkload
{
    AppKind app = AppKind::kNginx;
    int cores = 4;
    /** Total connections; bounded so both runs quiesce. */
    std::uint64_t maxConns = 2000;
    int concurrencyPerCore = 50;
    int requestsPerConn = 1;
    std::uint64_t seed = 1;
    /** Hard sim-time cap; exceeding it is reported as a non-drain. */
    double maxSimSec = 20.0;

    /**
     * Fault plan (parseFaultPlan text, empty = none). Wire-fault fates
     * are pure content hashes, so both kernels see the identical fault
     * pattern and the app-observable equality bar still applies. Pick a
     * client RTO well above worst-case latency (default 20ms) so
     * retransmission decisions cannot depend on kernel speed.
     */
    std::string faultPlan;
    double clientTimeoutSec = 0.0;  //!< required > 0 with a fault plan
    double clientRtoMsec = 0.0;     //!< client retx base RTO (0 = off)
};

/** What one kernel produced for the workload. */
struct ReferenceKernelTotals
{
    std::string kernel;              //!< "base-2.6.32" / "fastsocket"
    bool drained = false;            //!< quiesced under the cap

    /** @name Application-level observables (must match across kernels) */
    /** @{ */
    std::uint64_t started = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t responses = 0;
    std::uint64_t bytesReceived = 0;
    std::uint64_t served = 0;        //!< server-side response count
    /** @} */

    /** @name Performance observables (expected to differ) */
    /** @{ */
    Tick drainTick = 0;              //!< sim time at quiesce
    std::uint64_t lockWaitTicks = 0; //!< spin-wait cycles, all classes
    std::uint64_t busyTicks = 0;     //!< total core busy cycles
    /** @} */

    std::uint64_t fingerprint = 0;
    InvariantReport invariants;
};


inline ReferenceKernelTotals
referenceRunOneKernel(const ReferenceDifferentialWorkload &wl, const KernelConfig &kc,
             const std::string &name)
{
    ExperimentConfig cfg;
    cfg.app = wl.app;
    cfg.machine.cores = wl.cores;
    cfg.machine.kernel = kc;
    cfg.machine.seed = wl.seed;
    cfg.concurrencyPerCore = wl.concurrencyPerCore;
    cfg.requestsPerConn = wl.requestsPerConn;
    cfg.maxConns = wl.maxConns;
    cfg.checkLevel = CheckLevel::kPeriodic;
    cfg.clientTimeout = ticksFromSeconds(wl.clientTimeoutSec);
    cfg.clientRtoBase = ticksFromUsec(
        static_cast<std::uint64_t>(wl.clientRtoMsec * 1000.0));
    if (!wl.faultPlan.empty()) {
        std::string err;
        bool ok = parseFaultPlan(wl.faultPlan, cfg.faults, err);
        fsim_assert(ok);
        fsim_assert(wl.clientTimeoutSec > 0.0);
    }

    Testbed bed(cfg);
    // Quiesce (leak) checks live in their own registry: they only hold
    // once the run drains, so they must not join the periodic passes
    // bed.checks() performs mid-run. Under faults, abandoned handshakes
    // legitimately strand server TCBs until their keepalive horizon, so
    // the leak bar only applies to fault-free runs.
    InvariantRegistry quiesce;
    if (wl.faultPlan.empty())
        registerQuiesceInvariants(quiesce, bed.machine(), bed.load());

    EventQueue &eq = bed.eventQueue();
    HttpLoad &load = bed.load();
    Tick cap = ticksFromSeconds(wl.maxSimSec);
    Tick chunk = ticksFromSeconds(0.01);

    bed.startLoad();
    while (eq.now() < cap &&
           (load.inFlight() > 0 || load.started() < wl.maxConns))
        bed.runUntilChecked(std::min(cap, eq.now() + chunk));

    ReferenceKernelTotals t;
    t.kernel = name;
    t.drained = load.inFlight() == 0 && load.started() >= wl.maxConns;
    t.drainTick = eq.now();

    // Let the kernel finish housekeeping (TIME_WAIT reaping, timer
    // bases going idle) so the leak checks see the true final state.
    // Bounded workloads quiesce: timer bases only reschedule their
    // jiffy tick while timers are pending.
    if (t.drained) {
        eq.runAll();
        quiesce.runAll(eq.now());
    }
    bed.checks().runAll(eq.now());

    t.started = load.started();
    t.completed = load.completed();
    t.failed = load.failed();
    t.timeouts = load.timeouts();
    t.responses = load.responses();
    t.bytesReceived = load.bytesReceived();
    t.served = bed.app().served();
    t.lockWaitTicks = 0;
    for (const auto &kv : bed.machine().locks().snapshot())
        t.lockWaitTicks += kv.second.waitTicks;
    t.busyTicks = bed.machine().cpu().totalBusyTicks();
    t.fingerprint = bed.currentFingerprint();
    t.invariants = bed.checks().report();
    t.invariants.merge(quiesce.report());
    return t;
}

} // namespace fsim

#endif // FSIM_TESTS_REFERENCE_DIFFERENTIAL_HH
