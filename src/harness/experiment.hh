/**
 * @file
 * Experiment harness: builds server machines + applications + a client
 * fleet (one machine, or N behind an L4 balancer tier), runs warmup and
 * measurement windows, and collects the metrics every figure/table of
 * the paper is expressed in (connections/s, per-core utilization, L3
 * miss rate, local-packet proportion, lockstat deltas).
 */

#ifndef FSIM_HARNESS_EXPERIMENT_HH
#define FSIM_HARNESS_EXPERIMENT_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "app/backend.hh"
#include "app/http_load.hh"
#include "app/machine.hh"
#include "app/proxy.hh"
#include "app/web_server.hh"
#include "check/invariants.hh"
#include "fault/fault_injector.hh"
#include "fault/fault_plan.hh"
#include "fleet/balancer.hh"
#include "kernel/kernel_config.hh"
#include "net/net_port.hh"
#include "overload/admission.hh"
#include "overload/slo.hh"
#include "stats/metrics.hh"
#include "sync/lock_registry.hh"
#include "trace/conn_span.hh"
#include "trace/fleet_trace.hh"
#include "trace/incident_log.hh"
#include "trace/span_forensics.hh"
#include "trace/trace_report.hh"

namespace fsim
{

/** Which server application runs on the machine under test. */
enum class AppKind
{
    kNginx,     //!< WebServer (passive connections only)
    kHaproxy,   //!< Proxy (passive + active connections)
};

/** One-way latency of the flat fabric (no balancer tier, or useLinks
 *  off). */
inline constexpr Tick kWireDelay = ticksFromUsec(50);
/** Page size every server and backend serves (the paper's 64 B). */
inline constexpr std::uint32_t kResponseBytes = 64;

/** One experiment's setup. */
struct ExperimentConfig
{
    AppKind app = AppKind::kNginx;
    MachineConfig machine;
    /** http_load concurrency multiplier (paper: 500 x cores). */
    int concurrencyPerCore = 500;
    double warmupSec = 0.03;
    double measureSec = 0.12;
    /** Number of ideal backend servers (HAProxy experiments). */
    int backendCount = 16;
    /** Backend service port (a non-well-known port exercises RFD rule
     *  3, the precise listener probe). */
    Port backendPort = 80;
    /** Keep-alive backends: responses carry no FIN, so the proxy
     *  actively closes every backend connection and its ephemeral
     *  ports linger in TIME_WAIT (tcp_tw_reuse pressure). */
    bool backendKeepAlive = false;
    /** nginx accept mutex (paper 4.2.2 disables it under Fastsocket). */
    bool acceptMutex = false;
    /** Requests per connection (1 = short-lived; >1 enables HTTP
     *  keep-alive on the web server and long-lived client behavior). */
    int requestsPerConn = 1;
    /** @name Mixed connection lifetimes (0 = uniform workload) */
    /** @{ */
    /** Long-lived client connections per 1000 launches (keep-alive,
     *  longLivedRequests requests with think time); the rest stay
     *  short-lived "Connection: close" exchanges. Forces keep-alive on
     *  the web server. See HttpLoad::Config. */
    int longLivedPermille = 0;
    int longLivedRequests = 8;
    Tick longLivedThink = 0;
    /** Client ephemeral ports per IP (0 = full range): narrows the
     *  client tuple space for TIME_WAIT tuple-reuse pressure. */
    int clientPortSpan = 0;
    /** Client IP count (0 = HttpLoad default of 256). */
    int clientIps = 0;
    /** @} */
    /** Wire packet-loss probability (failure injection; 0 = off). */
    double lossRate = 0.0;
    /** Client give-up timeout (0 = none; required if lossRate > 0). */
    Tick clientTimeout = 0;
    /** Sub-windows the measurement window is split into for per-window
     *  lockstat deltas (1 = a single whole-window delta). */
    int statWindows = 1;
    /** Invariant checking intensity (src/check). The final-pass default
     *  is cheap enough to stay on everywhere; the fuzzer runs
     *  kPeriodic. */
    CheckLevel checkLevel = CheckLevel::kFinal;
    /** Sim-time between periodic invariant passes (kPeriodic only). */
    double checkIntervalSec = 0.005;
    /** Override the accept-queue backlog (somaxconn) of every listen
     *  socket (0 = keep the Socket default). */
    std::size_t listenBacklog = 0;
    /** Bounded workload: total connections the client fleet may start
     *  (0 = unlimited closed loop). See HttpLoad::Config::maxConns. */
    std::uint64_t maxConns = 0;

    /** @name Fault injection + hardening (src/fault) */
    /** @{ */
    /** Scheduled fault plan; empty = no injection. */
    FaultPlan faults;
    /** Override the kernel's SYN-queue capacity (0 = kernel default). */
    std::size_t synBacklog = 0;
    /** Client SYN/request retransmission base RTO (0 = off). */
    Tick clientRtoBase = 0;
    /** Proxy per-attempt backend timeout (0 = off); enables retry with
     *  backend health ejection (haproxy app only). */
    Tick backendTimeout = 0;
    /** @} */

    /** @name Overload control (src/overload) */
    /** @{ */
    /** Every Nth client connection is a tiny health probe (0 = none);
     *  pair with machine.overload.healthRequestBytes so the server's
     *  admission gate classifies them. */
    int clientHealthEvery = 0;
    /** @} */

    /** @name Span tracing (src/trace conn spans) */
    /** @{ */
    /** Keep raw per-connection span vectors and copy the window's
     *  completed traces into the result (needed by the Perfetto
     *  exporter; forensics read the folded records and do not). This
     *  is the only path that retains individual spans. Meaningless
     *  when machine.traceEnabled is off. */
    bool keepSpanTraces = false;
    /** @} */
};

/** Lock-stat deltas of one measurement sub-window. */
struct LockWindow
{
    Tick start = 0;
    Tick end = 0;
    std::map<std::string, LockClassStats> locks;
    /** Client connections completed in this sub-window. */
    std::uint64_t completed = 0;
    /** completed / sub-window seconds: the goodput-over-time curve the
     *  resilience benchmark plots. */
    double goodput = 0.0;
    /** @name Kernel counter deltas (fault visibility) */
    /** @{ */
    std::uint64_t synRetransmits = 0;
    std::uint64_t synCookiesSent = 0;
    std::uint64_t synCookiesValidated = 0;
    std::uint64_t acceptQueueRsts = 0;
    /** @} */
};

/** Overload-control counters of one run (run totals, not deltas, except
 *  the latency percentiles which cover the measurement window). */
struct OverloadResult
{
#define RESULT_METRIC_overload(field, key, type, better, gate) type field{};
#include "stats/result_metrics.def"
};

/** One checkpoint of a connection-count ramp (bench_million_conn):
 *  per-connection memory and lookup cost at a given live population. */
struct ConnRampPoint
{
    std::uint64_t live = 0;          //!< live TCBs at the checkpoint
    double bytesPerConn = 0.0;       //!< arena bytes / live peak so far
    double cyclesPerLookup = 0.0;    //!< ehash lookup cycles (delta avg)
    double avgProbeLen = 0.0;        //!< chain entries walked per lookup
};

/** Connection-lifetime census of one run (run totals and peaks, not
 *  window deltas): TCB memory footprint, TIME_WAIT lifecycle counters,
 *  ephemeral-port pressure, and established-hash lookup cost. */
struct ConnResult
{
#define RESULT_METRIC_conn(field, key, type, better, gate) type field{};
#include "stats/result_metrics.def"

    /** Ramp checkpoints (filled by bench_million_conn; empty
     *  elsewhere). */
    std::vector<ConnRampPoint> ramp;
};

/** Fleet-tier outcome (enabled=false and all zero for runs without a
 *  balancer tier). Counters are sums over every balancer and, where
 *  machine-scoped, over every server machine generation. */
struct FleetResult
{
#define RESULT_METRIC_fleet(field, key, type, better, gate) type field{};
#include "stats/result_metrics.def"
};

/** Measured outcome of one experiment. */
struct ExperimentResult
{
    /** Window scalars (cps, rps, served...): the "metrics" block. */
#define RESULT_METRIC_metrics(field, key, type, better, gate) type field{};
#include "stats/result_metrics.def"
    std::vector<double> coreUtil;       //!< per-core utilization
    /** Window deltas of every lock class (acquisitions/contentions...). */
    std::map<std::string, LockClassStats> locks;
    /** Fraction of measured cycles spent spinning on each lock class. */
    std::map<std::string, double> lockCycleShare;

    /** @name Trace-derived observability (window-scoped) */
    /** @{ */
    /** Measurement window length in ticks. */
    Tick windowSpan = 0;
    /** Raw per-core phase-cycle deltas over the window. */
    PhaseSnapshot phaseCycles;
    /** Normalized per-core phase fractions (each row sums to 1). */
    PhaseBreakdown phases;
    /** Folded stacks ("softirq;lock-spin cycles"), heaviest first. */
    std::vector<std::pair<std::string, std::uint64_t>> foldedStacks;
    /** Per-window lockstat deltas (cfg.statWindows sub-windows). */
    std::vector<LockWindow> lockWindows;
    /** Accept/backlog queue-depth timelines over the window, keyed by
     *  queue name (decimated: see QueueDepthRecorder). */
    std::map<std::string, std::vector<QueueSample>> queueTimelines;
    /** Queue-depth notes taken over the whole run, and how many of
     *  them the recorders' decimation dropped. */
    std::uint64_t traceEventsRecorded = 0;
    std::uint64_t traceEventsOverwritten = 0;
    /** Per-connection span forensics over the measurement window
     *  (stage latency percentiles + tail exemplars; enabled=false when
     *  tracing is off). */
    SpanForensics spanForensics;
    /** The window's completed span traces, kept only when
     *  cfg.keepSpanTraces (shared: results are copied by value). */
    std::shared_ptr<const std::vector<ConnSpanTrace>> spanTraces;
    /** @} */

    /** @name Correctness (src/check) */
    /** @{ */
    /** Determinism fingerprint: wire delivery-sequence hash folded with
     *  the run's final simulated counters. Same seed + config => same
     *  fingerprint, with or without tracing. */
    std::uint64_t fingerprint = 0;
    /** Invariant evaluations of this run (empty when checkLevel=kOff). */
    InvariantReport invariants;
    /** @} */

    /** Overload-control signals (enabled=false when the run had none). */
    OverloadResult overload;

    /** Connection-lifetime census (arena, TIME_WAIT, ports, ehash). */
    ConnResult conn;

    /** Fleet tier (enabled=false for runs without a balancer tier). */
    FleetResult fleet;

    /** Sampled metrics time series (enabled=false and empty when the
     *  run had no registry). */
    MetricsSnapshot timeseries;

    /** Fleet-wide end-to-end critical-path forensics (enabled=false
     *  outside traced fleet runs). */
    FleetTraceForensics fleetTrace;

    /** @name DES-core throughput (the "sim_core" block) */
    /** @{ */
    /** Events executed / scheduled over the window (deterministic:
     *  part of the same-seed contract like every counter above). */
    std::uint64_t simEventsRun = 0;
    std::uint64_t simEventsScheduled = 0;
    /** Window span in ticks (same value as windowSpan for run(), but
     *  filled even when tracing is off). */
    Tick simTicks = 0;
    /** Wall-clock seconds the window took. Stamped only by wall-aware
     *  benches (bench_sim_core); 0 everywhere else so same-seed JSON
     *  exports stay byte-identical across machines and runs. */
    double simWallSeconds = 0.0;
    /** @} */

    double maxUtil() const;
    double avgUtil() const;
    double minUtil() const;
};

/** Subtract two lock-stat snapshots (per class), saturating at zero: a
 *  restarted machine's counters start over, so a plain subtraction
 *  could wrap. */
std::map<std::string, LockClassStats> lockDelta(
    const std::map<std::string, LockClassStats> &before,
    const std::map<std::string, LockClassStats> &after);

/** Topology + policy knobs on top of a per-machine template. */
struct FleetConfig
{
    /** Per-machine template: app kind, machine/kernel config (seed,
     *  cores, overload...), windows, faults, client shape. Fleet-kind
     *  fault events are consumed by the orchestrator when a balancer
     *  tier exists; the rest arm a normal FaultInjector against the
     *  fabric. */
    ExperimentConfig base;

    /** 1..64 server machines behind 0..8 balancers. No balancer tier
     *  (0) is legal only for a single machine: the fleet of one. */
    int serverMachines = 4;
    int balancers = 2;

    /** @name Steering */
    /** @{ */
    L4Balancer::Policy policy = L4Balancer::Policy::kConsistentHash;
    int vnodes = 64;
    double boundedLoadFactor = 2.0;     //!< 0 = plain consistent hash
    std::size_t maxFlowsPerBalancer = 1u << 15;
    double forwardDelayUsec = 2.0;      //!< balancer rewrite cost
    /** @} */

    /** @name Health probing (wire-level SYN probes) */
    /** @{ */
    double probeIntervalMsec = 2.0;
    double probeTimeoutMsec = 1.0;
    int probeFallThreshold = 2;
    int probeRiseThreshold = 1;
    /** kScore replaces the binary fall/rise machine with latency-aware
     *  outlier scoring (catches gray degradation binary probes miss). */
    L4Balancer::HealthMode healthMode = L4Balancer::HealthMode::kBinary;
    HealthScoreConfig healthScore;
    /** @} */

    /** @name Draining / failover */
    /** @{ */
    double drainPollMsec = 0.5;         //!< drain-progress poll period
    double takeoverDelayMsec = 5.0;     //!< VIP failover detection lag
    double flowIdleTimeoutMsec = 200.0;
    double flowGcPeriodMsec = 10.0;
    /** @} */

    /** @name Fabric links (useLinks=false -> flat kWireDelay fabric;
     *  without a balancer tier the fabric is always flat) */
    /** @{ */
    bool useLinks = true;
    double frontLinkLatencyUsec = 100.0;    //!< clients <-> VIPs
    double frontLinkGbps = 40.0;
    double rackLinkLatencyUsec = 20.0;      //!< NAT <-> each machine
    double rackLinkGbps = 10.0;
    /** @} */

    /** >0: drive an open-loop Poisson arrival rate instead of the
     *  closed loop (the diurnal-curve benches reshape it over time via
     *  HttpLoad::setOpenLoopRate). */
    double openLoopRate = 0.0;

    /** @name SLO burn-rate tracking (independent of tracing: evaluates
     *  aggregate load counters, so it works under --notrace too; needs
     *  a balancer tier) */
    /** @{ */
    bool sloEnabled = false;
    SloConfig slo;
    /** @} */
};

/**
 * The simulated testbed: N identical server-machine stacks, optionally
 * behind a tier of B L4 balancers, driven by one client fleet.
 *
 * With a balancer tier (B >= 1) the topology is (one shared fabric
 * Wire, per-link latency/bandwidth):
 *
 *     clients (HttpLoad) ── front link ── VIPs (L4Balancer x B)
 *                                           │ full NAT
 *                                rack links per server machine
 *                                           │
 *                    server machines x N (Machine + Proxy/WebServer,
 *                       each behind a TX-gated NetPort)
 *                                           │
 *                            shared BackendPool (haproxy mode)
 *
 * Without one (B = 0, N = 1: the fleet of one, what Testbed builds) the
 * machine's NetPort sits on a flat kWireDelay fabric, and the clients
 * and the FaultInjector aim at the machine's own addresses and service
 * port:
 *
 *     clients (HttpLoad) ── kWireDelay ── server machine (NetPort)
 *                                           │
 *                            shared BackendPool (haproxy mode)
 *
 * Every server machine is an independent Machine instance with its own
 * kernel, cores, admission controller and address block. Whether a
 * balancer tier exists decides only what has no meaning without one:
 * fabric links, the SYN_RCVD reaper balancer probes need, the client
 * and fault target, fleet-kind fault orchestration, slot 0's seed
 * (the fleet of one keeps the base seed), end-to-end tracing, metrics,
 * SLO and incidents, the result's fleet block, the per-machine
 * forensics (ring timelines, overflow warning, span stages, raw
 * spans), sub-window lock/SYN deltas and the fingerprint fold.
 *
 * With a tier, the orchestrator consumes the fleet-kind FaultEvents
 * (machine_crash / rolling_restart / lb_crash / machine_degrade /
 * net_partition) from the plan and drives crash, drain->stop->restart->
 * readmit and VIP-failover sequences against the live topology.
 *
 * Crash model: a machine's NetPort TX gate closes (zombie transmissions
 * die at the NIC edge) and its fabric addresses are re-attached to a
 * corpse handler — an RST responder (power stayed on, kernel gone) or a
 * blackhole (cable pulled). Restart builds a fresh Machine generation
 * whose constructor re-attaches the same addresses, overwriting the
 * corpse. Old generations are retained as zombies until teardown so
 * run-total counters stay monotonic.
 *
 * Determinism: same FleetConfig + seed => bit-identical fingerprint.
 * With a tier it folds the fabric delivery hash, every machine
 * generation's kernel counters and every balancer's counter hash;
 * without one it folds the delivery hash and the single machine's
 * full counter set.
 */
class FleetTestbed
{
  public:
    explicit FleetTestbed(const FleetConfig &cfg);
    ~FleetTestbed();

    EventQueue &eventQueue() { return *eq_; }
    Wire &fabric() { return *fabric_; }
    HttpLoad &load() { return *load_; }
    L4Balancer &balancer(int k) { return *balancers_[k]; }
    int balancerCount() const { return static_cast<int>(
        balancers_.size()); }
    Machine &machine(int s = 0) { return *slots_[s].gen.machine; }
    AppBase &app(int s = 0) { return *slots_[s].gen.app; }
    /** Null unless cfg.base.machine.overload.enabled. */
    AdmissionController *admission(int s = 0)
    {
        return slots_[s].gen.admission.get();
    }
    bool machineUp(int s) const { return slots_[s].up; }
    int machineCount() const { return static_cast<int>(slots_.size()); }
    /** Null unless the app is haproxy. */
    BackendPool *backends() { return backends_.get(); }
    /** Null unless the fault plan is non-empty. */
    FaultInjector *faults() { return faults_.get(); }
    InvariantRegistry &checks() { return checks_; }

    /** @name Manual fault orchestration (benches/tests drive these;
     *  plan-scheduled fleet events call the same entry points) */
    /** @{ */
    /** Abrupt machine loss. @p admin suppresses the crash counter and
     *  tells balancers (a planned stop, not a discovered failure). */
    void crashMachine(int s, FaultEvent::CrashMode mode,
                      bool admin = false);
    /** Build the next Machine generation for a down slot. */
    void restartMachine(int s);
    /** Drain -> stop -> restart -> readmit, one machine at a time. */
    void beginRollingRestart(Tick drainDeadline, Tick downtime);
    bool rollingRestartActive() const { return rollingActive_; }
    void crashBalancer(int k);
    void restoreBalancer(int k);
    /** Gray degradation: CPU work stretched by @p permille/1000, NIC
     *  egress dropping @p nicLoss of packets and delaying the rest by
     *  @p nicDelay. Survives a restart of the slot (the fault is the
     *  machine's environment, not one generation's state). */
    void degradeMachine(int s, std::uint32_t permille, double nicLoss,
                        Tick nicDelay);
    void clearDegrade(int s);
    bool machineDegraded(int s) const { return slots_[s].degraded; }
    /** @} */

    /** Incident ledger (inject -> detect -> eject -> recover stamps;
     *  balancers write the detection-side stamps). */
    const IncidentLog &incidents() const { return incidents_; }

    /** End-to-end trace collector (client + balancer hops stream in
     *  live; machine spans are stitched at collect()). */
    const FleetTraceLog &traceLog() const { return traceLog_; }

    /** Fleet metrics registry (sampled once per stat sub-window). */
    const MetricsRegistry &metrics() const { return metrics_; }

    /** SLO burn tracker (null unless cfg.sloEnabled). */
    const SloTracker *slo() const { return slo_.get(); }

    /** Per stat sub-window: feed the SLO tracker and sample every
     *  registered metric (a no-op without a balancer tier). Recording
     *  only. run() calls it once per sub-window; external drivers (the
     *  scenario fuzzer) that bypass run() call it on their own
     *  cadence. */
    void sampleObservability(Tick wstart, Tick wend);

    /** Start client load (idempotent; run() calls it). */
    void startLoad();
    /** Reset all measurement marks to now. */
    void markWindows();
    /**
     * Advance simulated time to @p limit, interleaving periodic
     * invariant passes when cfg.base.checkLevel == kPeriodic. Slicing
     * is behavior-neutral: events execute at identical ticks either
     * way.
     */
    void runUntilChecked(Tick limit);
    /** Measure since the last markWindows(). */
    ExperimentResult collect();
    /** warmup -> mark -> measure -> collect (the bench entry point). */
    ExperimentResult run();

    /** Current determinism fingerprint (wire sequence + live counters). */
    std::uint64_t currentFingerprint() const;

    /** @name Orchestration counters */
    /** @{ */
    std::uint64_t crashes() const { return orch_.crashes; }
    std::uint64_t restarts() const { return orch_.restarts; }
    std::uint64_t vipTakeovers() const { return orch_.vipTakeovers; }
    /** @} */

    /** @name Address plan (stable; tests depend on it) */
    /** @{ */
    static IpAddr machineBase(int s)
    {
        return 0x0a000001u + static_cast<IpAddr>(s) * 0x100u;
    }
    static IpAddr vipAddr(int k) { return 0x0aff0001u + k; }
    static IpAddr natAddr(int k) { return 0x0a800001u + k; }
    /** @} */

  private:
    /** One machine generation (kept as a zombie after crash). */
    struct Generation
    {
        std::unique_ptr<NetPort> port;
        std::unique_ptr<Machine> machine;
        std::unique_ptr<AppBase> app;
        std::unique_ptr<AdmissionController> admission;
    };

    struct ServerSlot
    {
        Generation gen;
        int generation = 0;     //!< 0 = original boot
        bool up = true;
        /** @name Active gray-degradation parameters (re-applied to a
         *  fresh generation if the slot restarts mid-fault) */
        /** @{ */
        bool degraded = false;
        std::uint32_t slowPermille = 1000;
        double nicLoss = 0.0;
        Tick nicDelay = 0;
        /** @} */
        /** @name Window marks for the slot's current generation */
        /** @{ */
        PhaseSnapshot phaseMark;
        std::map<std::string, LockClassStats> lockMark;
        KernelStats ksMark;
        std::uint64_t servedMark = 0;
        std::uint64_t accessesMark = 0;
        std::uint64_t missesMark = 0;
        /** @} */
    };

    /** Window deltas banked from generations retired mid-window. */
    struct WindowCarry
    {
        std::uint64_t served = 0;
        std::uint64_t slowPath = 0;
        std::uint64_t steered = 0;
        std::uint64_t rx = 0;
        std::uint64_t activeLocal = 0;
        std::uint64_t activeTotal = 0;
        std::uint64_t accesses = 0;
        std::uint64_t misses = 0;
    };

    /** Whether a balancer tier fronts the machines (see the class
     *  comment for everything it decides). */
    bool tiered() const { return cfg_.balancers > 0; }

    void buildGeneration(int s);
    void registerMachineInvariants(const Generation &g);
    void armFleetFaults();
    void applyDegrade(int s);
    void setupObservability();
    /** Run-total shed across balancers + every admission generation. */
    std::uint64_t currentShedTotal() const;
    /** Group token ("clients", "lbs", "ms", "lb<k>", "m<s>") to fabric
     *  address ranges (first, last). */
    std::vector<std::pair<IpAddr, IpAddr>>
    resolveGroup(const std::string &tok) const;
    void advanceRolling();
    void pollDrain(int s, Tick deadline);
    void pollReadmit(int s);
    std::uint64_t totalActiveOn(int s) const;
    template <typename Fn> void forEachGeneration(Fn fn) const;

    FleetConfig cfg_;
    /** Raw-span tap (cfg.base.keepSpanTraces without a tier); declared
     *  before the machines so it outlives the logs that point at it. */
    std::unique_ptr<ConnSpanRecorder> spanRecorder_;
    std::unique_ptr<EventQueue> eq_;
    std::unique_ptr<Wire> fabric_;
    std::vector<ServerSlot> slots_;
    std::vector<Generation> retired_;
    std::vector<std::unique_ptr<L4Balancer>> balancers_;
    std::vector<bool> lbUp_;
    std::unique_ptr<BackendPool> backends_;
    std::vector<IpAddr> backendAddrs_;
    std::unique_ptr<HttpLoad> load_;
    std::unique_ptr<FaultInjector> faults_;
    InvariantRegistry checks_;
    bool loadStarted_ = false;

    Tick drainPoll_ = 0;
    bool rollingActive_ = false;
    int rollingIndex_ = 0;
    Tick rollingDrain_ = 0;
    Tick rollingDown_ = 0;

    /** Orchestration counters (crashes, restarts, lbCrashes,
     *  vipTakeovers, corpseRsts, blackholed, degradesApplied,
     *  flapTransitions, partitionsArmed), kept in the fleet-block fields
     *  they export as; collect() starts the block from this copy. */
    FleetResult orch_;
    IncidentLog incidents_;
    FleetTraceLog traceLog_;
    MetricsRegistry metrics_;
    std::unique_ptr<SloTracker> slo_;

    /** @name Metric slots + sampling cursors */
    /** @{ */
    struct MetricIds
    {
        std::vector<MetricsRegistry::MetricId> lbFlows;
        std::vector<MetricsRegistry::MetricId> mCps;
        std::vector<MetricsRegistry::MetricId> mEstablished;
        std::vector<MetricsRegistry::MetricId> mTimeWait;
        std::vector<MetricsRegistry::MetricId> mPressure;
        MetricsRegistry::MetricId completed =
            MetricsRegistry::kInvalidMetric;
        MetricsRegistry::MetricId failed =
            MetricsRegistry::kInvalidMetric;
        MetricsRegistry::MetricId shed = MetricsRegistry::kInvalidMetric;
        MetricsRegistry::MetricId upMachines =
            MetricsRegistry::kInvalidMetric;
        MetricsRegistry::MetricId healthyTargets =
            MetricsRegistry::kInvalidMetric;
        MetricsRegistry::MetricId successRatio =
            MetricsRegistry::kInvalidMetric;
        MetricsRegistry::MetricId latency =
            MetricsRegistry::kInvalidMetric;
        MetricsRegistry::MetricId fastBurn =
            MetricsRegistry::kInvalidMetric;
        MetricsRegistry::MetricId slowBurn =
            MetricsRegistry::kInvalidMetric;
    };
    MetricIds mid_;
    std::size_t latCursor_ = 0;     //!< into load_->latencySamples()
    std::uint64_t obsCompletedPrev_ = 0;
    std::uint64_t obsFailedPrev_ = 0;
    std::uint64_t obsShedPrev_ = 0;
    std::vector<std::uint64_t> obsServedPrev_;
    /** @} */

    /** @name Run-level measurement marks */
    /** @{ */
    Tick markTick_ = 0;
    std::uint64_t completedMark_ = 0;
    std::uint64_t failedMark_ = 0;
    std::uint64_t eventsRunMark_ = 0;
    std::uint64_t eventsScheduledMark_ = 0;
    std::size_t spanCompletedMark_ = 0;
    std::size_t rawSpanMark_ = 0;
    WindowCarry carry_;
    /** @} */
};

/**
 * One machine, no balancer tier: the fleet of one. Exposed (rather than
 * hidden inside a run() function) so examples can drive it
 * interactively; machine() and app() mean slot 0.
 */
class Testbed : public FleetTestbed
{
  public:
    explicit Testbed(const ExperimentConfig &cfg);
};

/** Convenience: build a testbed, run it, return the result. */
ExperimentResult runExperiment(const ExperimentConfig &cfg);

/** One-shot convenience mirroring runExperiment(). */
ExperimentResult runFleetExperiment(const FleetConfig &cfg);

} // namespace fsim

#endif // FSIM_HARNESS_EXPERIMENT_HH
