/**
 * @file
 * The single-machine Testbed as it shipped before the fleet of one,
 * kept verbatim as a test oracle.
 *
 * Until the unification the simulator built its stack twice: this
 * class for one machine and FleetTestbed for N machines behind L4
 * balancers. Testbed is now a FleetTestbed with one server machine and
 * no balancer tier. The differential test (test_testbed_diff.cc) runs
 * this reference and the fleet of one on the same configs and requires
 * identical fingerprints and identical bench-JSON rows. Do not
 * "improve" it — its value is that it stays the old code, line for
 * line, including its plain (non-saturating) lock delta.
 */

#ifndef FSIM_TESTS_REFERENCE_TESTBED_HH
#define FSIM_TESTS_REFERENCE_TESTBED_HH

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "check/fingerprint.hh"
#include "harness/experiment.hh"
#include "sim/logging.hh"

namespace fsim
{

/** The pre-unification single-machine testbed. */
class ReferenceTestbed
{
  public:
    explicit ReferenceTestbed(const ExperimentConfig &cfg);
    ~ReferenceTestbed();

    EventQueue &eventQueue() { return *eq_; }
    Wire &wire() { return *wire_; }
    Machine &machine() { return *machine_; }
    AppBase &app() { return *app_; }
    HttpLoad &load() { return *load_; }
    InvariantRegistry &checks() { return checks_; }

    ExperimentResult run();
    void startLoad();
    void markWindows();
    ExperimentResult collect();
    void runUntilChecked(Tick limit);
    std::uint64_t currentFingerprint() const;

  private:
    ExperimentConfig cfg_;
    std::unique_ptr<ConnSpanRecorder> spanRecorder_;
    std::unique_ptr<EventQueue> eq_;
    std::unique_ptr<Wire> wire_;
    std::unique_ptr<Machine> machine_;
    std::unique_ptr<BackendPool> backends_;
    std::unique_ptr<AppBase> app_;
    std::unique_ptr<HttpLoad> load_;
    std::unique_ptr<FaultInjector> faults_;
    std::unique_ptr<AdmissionController> admission_;
    InvariantRegistry checks_;

    bool loadStarted_ = false;
    std::map<std::string, LockClassStats> lockMark_;
    PhaseSnapshot phaseMark_;
    std::uint64_t accessesMark_ = 0;
    std::uint64_t missesMark_ = 0;
    std::uint64_t servedMark_ = 0;
    std::uint64_t failedMark_ = 0;
    std::uint64_t slowMark_ = 0;
    std::uint64_t steerMark_ = 0;
    std::uint64_t rxMark_ = 0;
    std::uint64_t activeLocalMark_ = 0;
    std::uint64_t activeTotalMark_ = 0;
    std::size_t spanCompletedMark_ = 0;
    std::size_t rawSpanMark_ = 0;
    std::uint64_t eventsRunMark_ = 0;
    std::uint64_t eventsScheduledMark_ = 0;
    Tick markTick_ = 0;
};

inline std::map<std::string, LockClassStats>
referenceLockDelta(const std::map<std::string, LockClassStats> &before,
                   const std::map<std::string, LockClassStats> &after)
{
    std::map<std::string, LockClassStats> out;
    for (const auto &kv : after) {
        LockClassStats d = kv.second;
        auto it = before.find(kv.first);
        if (it != before.end()) {
            d.acquisitions -= it->second.acquisitions;
            d.contentions -= it->second.contentions;
            d.waitTicks -= it->second.waitTicks;
            d.holdTicks -= it->second.holdTicks;
        }
        out[kv.first] = d;
    }
    return out;
}

inline ReferenceTestbed::ReferenceTestbed(const ExperimentConfig &cfg)
    : cfg_(cfg)
{
    // The SYN-queue shorthand folds into the kernel config before the
    // machine exists; the default leaves it untouched.
    if (cfg_.synBacklog > 0)
        cfg_.machine.kernel.synBacklog = cfg_.synBacklog;

    eq_ = std::make_unique<EventQueue>();
    wire_ = std::make_unique<Wire>(*eq_, kWireDelay);
    if (cfg_.lossRate > 0.0)
        wire_->setLossRate(cfg_.lossRate, cfg_.machine.seed ^ 0x10ad);
    machine_ = std::make_unique<Machine>(*eq_, *wire_, cfg_.machine);
    if (cfg_.keepSpanTraces && cfg_.machine.traceEnabled) {
        spanRecorder_ = std::make_unique<ConnSpanRecorder>();
        machine_->tracer().connSpans().setTap(spanRecorder_.get());
    }

    if (cfg_.app == AppKind::kHaproxy) {
        IpAddr bfirst = 0x0a010001;   // 10.1.0.1
        IpAddr blast = bfirst + static_cast<IpAddr>(cfg_.backendCount - 1);
        backends_ = std::make_unique<BackendPool>(
            *eq_, *wire_, bfirst, blast, kResponseBytes,
            ticksFromUsec(100));
        backends_->setKeepAlive(cfg_.backendKeepAlive);
        std::vector<IpAddr> baddrs;
        for (IpAddr a = bfirst; a <= blast; ++a)
            baddrs.push_back(a);
        auto proxy = std::make_unique<Proxy>(*machine_, baddrs,
                                             cfg_.backendPort,
                                             kResponseBytes);
        if (cfg_.backendTimeout > 0) {
            Proxy::Tuning pt;
            pt.backendTimeout = cfg_.backendTimeout;
            proxy->setTuning(pt);
        }
        app_ = std::move(proxy);
    } else {
        app_ = std::make_unique<WebServer>(*machine_, kResponseBytes,
                                           cfg_.requestsPerConn > 1 ||
                                               cfg_.longLivedPermille > 0);
    }
    app_->setAcceptMutex(cfg_.acceptMutex);
    app_->start();

    if (cfg_.machine.overload.enabled) {
        // The controller reads the machine-owned PressureState; the app
        // consults it once per accepted connection.
        admission_ = std::make_unique<AdmissionController>(
            machine_->config().overload, &machine_->pressure(),
            machine_->numCores());
        app_->setAdmission(admission_.get(),
                           &machine_->config().overload);
    }

    HttpLoad::Config lc;
    lc.serverAddrs = machine_->addrs();
    lc.serverPort = machine_->servicePort();
    lc.concurrency = cfg_.concurrencyPerCore * machine_->numCores();
    lc.requestsPerConn = cfg_.requestsPerConn;
    lc.timeout = cfg_.clientTimeout;
    lc.seed = cfg_.machine.seed ^ 0xabcdef;
    lc.maxConns = cfg_.maxConns;
    lc.rtoBase = cfg_.clientRtoBase;
    lc.healthEvery = cfg_.clientHealthEvery;
    if (cfg_.machine.overload.healthRequestBytes > 0)
        lc.healthRequestBytes = cfg_.machine.overload.healthRequestBytes;
    lc.longLivedPermille = cfg_.longLivedPermille;
    lc.longLivedRequests = cfg_.longLivedRequests;
    lc.longLivedThink = cfg_.longLivedThink;
    lc.clientPortSpan = cfg_.clientPortSpan;
    if (cfg_.clientIps > 0)
        lc.clientIps = cfg_.clientIps;
    load_ = std::make_unique<HttpLoad>(*eq_, *wire_, lc);

    if (!cfg_.faults.empty()) {
        faults_ = std::make_unique<FaultInjector>(*eq_, *wire_,
                                                  machine_->nic(),
                                                  backends_.get(),
                                                  cfg_.faults);
        faults_->arm(machine_->addrs(), machine_->servicePort());
    }

    if (cfg_.listenBacklog > 0) {
        for (const Socket *s : machine_->kernel().allSockets())
            if (s->kind == SockKind::kListen)
                s->listen->backlog = cfg_.listenBacklog;
    }

    if (cfg_.checkLevel != CheckLevel::kOff) {
        registerStandardInvariants(checks_, *machine_, *load_, *wire_);
        if (admission_)
            registerOverloadInvariants(checks_, *admission_, *machine_,
                                       *app_);
    }
}

inline ReferenceTestbed::~ReferenceTestbed() = default;

inline void
ReferenceTestbed::runUntilChecked(Tick limit)
{
    if (cfg_.checkLevel != CheckLevel::kPeriodic) {
        eq_->runUntil(limit);
        return;
    }
    Tick step = ticksFromSeconds(cfg_.checkIntervalSec);
    if (step == 0)
        step = 1;
    while (eq_->now() < limit) {
        eq_->runUntil(std::min(limit, eq_->now() + step));
        checks_.runAll(eq_->now());
    }
}

inline std::uint64_t
ReferenceTestbed::currentFingerprint() const
{
    // The wire's delivery-sequence hash already pins the entire network
    // behavior of the run; fold the simulator's independent counters on
    // top so a bookkeeping divergence (client, kernel, clock) changes
    // the fingerprint even if it never reached the wire. Everything
    // folded here is simulated state — trace configuration must not
    // move any of it.
    Fingerprint fp;
    fp.mix(wire_->seqHash());
    fp.mix(eq_->now());
    fp.mix(load_->started());
    fp.mix(load_->completed());
    fp.mix(load_->failed());
    fp.mix(load_->responses());
    fp.mix(load_->timeouts());
    fp.mix(load_->bytesReceived());
    fp.mix(app_->served());
    const KernelStats &ks = machine_->kernel().stats();
    fp.mix(ks.rxPackets);
    fp.mix(ks.txPackets);
    fp.mix(ks.steeredPackets);
    fp.mix(ks.rstSent);
    fp.mix(ks.acceptedConns);
    fp.mix(ks.activeConns);
    fp.mix(ks.slowPathAccepts);
    fp.mix(ks.socketsCreated);
    fp.mix(ks.socketsDestroyed);
    fp.mix(ks.acceptOverflows);
    fp.mix(ks.timeWaitReaped);
    fp.mix(ks.synRetransmits);
    fp.mix(ks.synDropped);
    fp.mix(ks.synCookiesSent);
    fp.mix(ks.synCookiesValidated);
    fp.mix(ks.synRcvdReaped);
    fp.mix(ks.acceptQueueRsts);
    // Connection-lifetime subsystem counters: TW lifecycle decisions,
    // port exhaustion, ehash probing work, and the arena census are all
    // deterministic simulated behavior.
    fp.mix(ks.establishedPeak);
    fp.mix(ks.timeWaitEntered);
    fp.mix(ks.timeWaitRecycled);
    fp.mix(ks.timeWaitReused);
    fp.mix(ks.timeWaitSynDropped);
    fp.mix(ks.timeWaitAcks);
    fp.mix(ks.portAllocFailures);
    fp.mix(machine_->kernel().tcbArena().totalCreated());
    fp.mix(machine_->kernel().tcbArena().peakLive());
    fp.mix(machine_->kernel().timeWaitTable().peakSize());
    fp.mix(machine_->kernel().ehashLookups());
    fp.mix(machine_->kernel().ehashProbesWalked());
    fp.mix(machine_->kernel().ehashLookupCycles());
    fp.mix(machine_->kernel().ehashResizes());
    fp.mix(wire_->duplicated());
    fp.mix(load_->synRetransmits());
    fp.mix(load_->requestRetransmits());
    fp.mix(load_->retxGiveups());
    fp.mix(machine_->cpu().totalBusyTicks());
    fp.mix(machine_->cache().totalAccesses());
    fp.mix(machine_->cache().totalMisses());
    // Overload-control state is simulated behavior too: a divergence in
    // pressure transitions or admission decisions must flip the
    // fingerprint even when the goodput happens to match.
    fp.mix(ks.backlogDropped);
    fp.mix(ks.synGateDropped);
    fp.mix(machine_->pressure().transitions());
    fp.mix(static_cast<std::uint64_t>(machine_->pressure().level()));
    fp.mix(app_->servedDegraded());
    fp.mix(app_->shedConns());
    fp.mix(load_->healthStarted());
    fp.mix(load_->healthCompleted());
    fp.mix(load_->healthFailed());
    if (admission_) {
        fp.mix(admission_->offered());
        fp.mix(admission_->admitted());
        fp.mix(admission_->degraded());
        fp.mix(admission_->shedDeadline());
        fp.mix(admission_->shedWorkerCap());
        fp.mix(admission_->shedPressure());
        fp.mix(admission_->released());
        fp.mix(admission_->healthOffered());
        fp.mix(admission_->healthAdmitted());
        fp.mix(admission_->releaseUnderflows());
    }
    return fp.value();
}

inline void
ReferenceTestbed::startLoad()
{
    if (loadStarted_)
        return;
    loadStarted_ = true;
    load_->start();
}

inline void
ReferenceTestbed::markWindows()
{
    machine_->markWindow();
    load_->markWindow();
    lockMark_ = machine_->locks().snapshot();
    phaseMark_ = machine_->tracer().phaseSnapshot();
    accessesMark_ = machine_->cache().totalAccesses();
    missesMark_ = machine_->cache().totalMisses();
    servedMark_ = app_->served();
    const KernelStats &ks = machine_->kernel().stats();
    slowMark_ = ks.slowPathAccepts;
    steerMark_ = ks.steeredPackets;
    rxMark_ = ks.rxPackets;
    activeLocalMark_ = ks.activePktLocal;
    activeTotalMark_ = ks.activePktTotal;
    failedMark_ = load_->failed();
    spanCompletedMark_ = machine_->tracer().connSpans().completedCount();
    rawSpanMark_ = spanRecorder_ ? spanRecorder_->completed().size() : 0;
    eventsRunMark_ = eq_->executed();
    eventsScheduledMark_ = eq_->scheduled();
    markTick_ = eq_->now();
}

inline ExperimentResult
ReferenceTestbed::collect()
{
    // Every collection point doubles as an invariant pass (the kFinal
    // default): manual drivers get checked exactly where they measure.
    if (cfg_.checkLevel != CheckLevel::kOff)
        checks_.runAll(eq_->now());

    ExperimentResult r;
    r.cps = load_->throughputSinceMark();
    r.rps = load_->requestThroughputSinceMark();
    r.coreUtil = machine_->utilizationSinceMark();
    r.locks = referenceLockDelta(lockMark_, machine_->locks().snapshot());

    std::uint64_t acc = machine_->cache().totalAccesses() - accessesMark_;
    std::uint64_t mis = machine_->cache().totalMisses() - missesMark_;
    r.l3MissRate = acc ? static_cast<double>(mis) /
                         static_cast<double>(acc)
                       : 0.0;

    const KernelStats &ks = machine_->kernel().stats();
    std::uint64_t at = ks.activePktTotal - activeTotalMark_;
    std::uint64_t al = ks.activePktLocal - activeLocalMark_;
    r.localPktProportion = at ? static_cast<double>(al) /
                                static_cast<double>(at)
                              : 0.0;

    r.simEventsRun = eq_->executed() - eventsRunMark_;
    r.simEventsScheduled = eq_->scheduled() - eventsScheduledMark_;
    r.simTicks = eq_->now() - markTick_;

    r.served = app_->served() - servedMark_;
    r.clientFailures = load_->failed() - failedMark_;
    r.slowPathAccepts = ks.slowPathAccepts - slowMark_;
    r.steeredPackets = ks.steeredPackets - steerMark_;
    r.rxPackets = ks.rxPackets - rxMark_;

    // Lock cycle shares: spin-wait cycles per class over the window's
    // total core-cycles (the "spin lock consumes 9%/11% of CPU cycles"
    // framing of section 1).
    Tick span = eq_->now() - markTick_;
    double total_cycles = static_cast<double>(span) *
                          machine_->numCores();
    if (total_cycles > 0) {
        for (const auto &kv : r.locks) {
            r.lockCycleShare[kv.first] =
                static_cast<double>(kv.second.waitTicks) / total_cycles;
        }
    }

    // Trace-derived breakdowns: where did every window cycle go?
    const Tracer &tr = machine_->tracer();
    r.windowSpan = span;
    r.phaseCycles = phaseDelta(phaseMark_, tr.phaseSnapshot());
    r.phases = phaseBreakdown(r.phaseCycles, span);
    r.foldedStacks = foldedStacks(r.phaseCycles);
    for (int q = 0; q <= static_cast<int>(TraceQueueId::kProcessBacklog);
         ++q) {
        auto qid = static_cast<TraceQueueId>(q);
        std::vector<QueueSample> tl =
            queueTimeline(tr, qid, markTick_, eq_->now());
        if (!tl.empty())
            r.queueTimelines[traceQueueName(qid)] = std::move(tl);
    }
    r.traceEventsRecorded = tr.depthNotes();
    r.traceEventsOverwritten = tr.depthNotesDropped();

    // Per-connection span forensics over the window, plus the raw
    // traces when the caller wants to export them (Perfetto).
    const ConnSpanLog &sl = tr.connSpans();
    r.spanForensics = buildSpanForensics(sl, spanCompletedMark_);
    if (spanRecorder_) {
        const auto &all = spanRecorder_->completed();
        std::size_t from = std::min(rawSpanMark_, all.size());
        r.spanTraces =
            std::make_shared<const std::vector<ConnSpanTrace>>(
                all.begin() + static_cast<std::ptrdiff_t>(from),
                all.end());
    }
    if (!cfg_.machine.traceEnabled) {
        // --notrace contract: a disabled span log must never have
        // touched the allocator (the hooks are all gated on enabled()).
        fsim_assert(sl.allocations() == 0 &&
                    "span tracing allocated with tracing disabled");
    }

    r.fingerprint = currentFingerprint();
    r.invariants = checks_.report();

    // Overload-control block: admission run totals, pressure peaks, and
    // the window's client-observed latency tail.
    OverloadResult &ov = r.overload;
    ov.enabled = cfg_.machine.overload.enabled;
    ov.spec = serializeOverloadSpec(cfg_.machine.overload);
    if (admission_) {
        ov.offered = admission_->offered();
        ov.admitted = admission_->admitted();
        ov.degraded = admission_->degraded();
        ov.shed = admission_->shed();
        ov.shedDeadline = admission_->shedDeadline();
        ov.shedWorkerCap = admission_->shedWorkerCap();
        ov.shedPressure = admission_->shedPressure();
        ov.released = admission_->released();
        ov.inflight = admission_->inflightTotal();
        ov.healthOffered = admission_->healthOffered();
        ov.healthAdmitted = admission_->healthAdmitted();
    }
    ov.servedDegraded = app_->servedDegraded();
    const PressureState &pr = machine_->pressure();
    ov.backlogDropped = ks.backlogDropped;
    ov.synGateDropped = ks.synGateDropped;
    ov.pressureTransitions = pr.transitions();
    ov.pressureLevel = static_cast<int>(pr.level());
    ov.pressurePeak = static_cast<int>(pr.peakLevel());
    ov.softirqDepthPeak = pr.softirqDepthPeak();
    ov.acceptDepthPeak = pr.acceptDepthPeak();
    for (int p = 0; p < machine_->numCores(); ++p) {
        std::size_t rp = machine_->kernel().process(p).epoll->readyPeak();
        ov.epollReadyPeak = std::max<std::uint64_t>(ov.epollReadyPeak, rp);
    }
    ov.latencyP50 = load_->latencyPercentileSinceMark(0.50);
    ov.latencyP99 = load_->latencyPercentileSinceMark(0.99);
    ov.latencySamples = load_->latencySamplesSinceMark();
    ov.healthProbesStarted = load_->healthStarted();
    ov.healthProbesCompleted = load_->healthCompleted();
    ov.healthProbesFailed = load_->healthFailed();

    // Connection-lifetime census: arena footprint, TIME_WAIT lifecycle,
    // port pressure, and established-hash lookup cost (run totals).
    ConnResult &cn = r.conn;
    const KernelStack &k = machine_->kernel();
    const TcbArena &arena = k.tcbArena();
    cn.tcbLive = arena.live();
    cn.tcbLivePeak = arena.peakLive();
    cn.tcbCreated = arena.totalCreated();
    cn.slabBytes = arena.slabBytes();
    cn.bytesPerConn = arena.bytesPerConn();
    cn.establishedCurr = ks.establishedCurr;
    cn.establishedPeak = ks.establishedPeak;
    cn.timeWaitCurr = k.timeWaitTable().size();
    cn.timeWaitPeak = k.timeWaitTable().peakSize();
    cn.timeWaitEntered = ks.timeWaitEntered;
    cn.timeWaitReaped = ks.timeWaitReaped;
    cn.timeWaitRecycled = ks.timeWaitRecycled;
    cn.timeWaitReused = ks.timeWaitReused;
    cn.timeWaitSynDropped = ks.timeWaitSynDropped;
    cn.timeWaitAcks = ks.timeWaitAcks;
    cn.portAllocFailures = ks.portAllocFailures;
    cn.ehashLookups = k.ehashLookups();
    cn.ehashProbesWalked = k.ehashProbesWalked();
    cn.ehashLookupCycles = k.ehashLookupCycles();
    cn.ehashResizes = k.ehashResizes();
    if (cn.ehashLookups > 0) {
        cn.avgProbeLen = static_cast<double>(cn.ehashProbesWalked) /
                         static_cast<double>(cn.ehashLookups);
        cn.cyclesPerLookup = static_cast<double>(cn.ehashLookupCycles) /
                             static_cast<double>(cn.ehashLookups);
    }
    return r;
}

inline ExperimentResult
ReferenceTestbed::run()
{
    startLoad();
    runUntilChecked(eq_->now() + ticksFromSeconds(cfg_.warmupSec));
    markWindows();

    // Split the measurement into statWindows sub-windows, snapshotting
    // lockstat at each boundary so contention evolution is visible.
    int wins = std::max(1, cfg_.statWindows);
    Tick begin = eq_->now();
    Tick measure = ticksFromSeconds(cfg_.measureSec);
    std::vector<LockWindow> lock_windows;
    std::map<std::string, LockClassStats> prev =
        machine_->locks().snapshot();
    std::uint64_t completed_prev = load_->completed();
    KernelStats ks_prev = machine_->kernel().stats();
    for (int w = 0; w < wins; ++w) {
        Tick wstart = eq_->now();
        runUntilChecked(begin + measure * (w + 1) / wins);
        std::map<std::string, LockClassStats> cur =
            machine_->locks().snapshot();
        LockWindow lw;
        lw.start = wstart;
        lw.end = eq_->now();
        lw.locks = referenceLockDelta(prev, cur);
        lw.completed = load_->completed() - completed_prev;
        double wsec = secondsFromTicks(lw.end - lw.start);
        lw.goodput = wsec > 0.0 ? static_cast<double>(lw.completed) / wsec
                                : 0.0;
        const KernelStats &ksc = machine_->kernel().stats();
        lw.synRetransmits = ksc.synRetransmits - ks_prev.synRetransmits;
        lw.synCookiesSent = ksc.synCookiesSent - ks_prev.synCookiesSent;
        lw.synCookiesValidated =
            ksc.synCookiesValidated - ks_prev.synCookiesValidated;
        lw.acceptQueueRsts = ksc.acceptQueueRsts - ks_prev.acceptQueueRsts;
        lock_windows.push_back(std::move(lw));
        prev = std::move(cur);
        completed_prev = load_->completed();
        ks_prev = ksc;
    }

    ExperimentResult r = collect();
    r.lockWindows = std::move(lock_windows);
    return r;
}

} // namespace fsim

#endif // FSIM_TESTS_REFERENCE_TESTBED_HH
