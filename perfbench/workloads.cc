#include "workloads.hh"

#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <type_traits>

#include "harness/bench_json.hh"

namespace perfbench
{

using fsim::ExperimentConfig;
using fsim::FleetTestbed;
using fsim::KernelConfig;
using fsim::Machine;
using fsim::Testbed;
using fsim::Tick;

namespace
{

using Clock = std::chrono::steady_clock;

/** bench_million_conn's ramp shape: checkpoints, then a short window. */
constexpr int kRampCheckpoints = 8;
constexpr double kRampWindowSec = 0.1;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
usFromTicks(Tick t)
{
    return fsim::secondsFromTicks(t) * 1e6;
}

RowSpec
singleMachineRow(const char *name, KernelConfig kernel,
                 std::uint64_t seed)
{
    RowSpec row;
    row.name = name;
    ExperimentConfig &c = row.fleet.base;
    c.app = fsim::AppKind::kNginx;
    c.machine.cores = 24;
    c.machine.kernel = kernel;
    c.machine.seed = seed;
    return row;
}

/** Fig. 4(a)'s 24-core column: closed-loop http_load, one request per
 *  connection, tracing on as shipped. */
void
shortconnNginx(std::uint64_t seed, Inject inject, Workload &w)
{
    const struct
    {
        const char *name;
        KernelConfig kernel;
    } kernels[] = {
        {"base2632", KernelConfig::base2632()},
        {"linux313", KernelConfig::linux313()},
        {"fastsocket", inject == Inject::kShape ? KernelConfig::base2632()
                                                : KernelConfig::fastsocket()},
    };
    for (const auto &k : kernels) {
        RowSpec row = singleMachineRow(k.name, k.kernel, seed);
        ExperimentConfig &c = row.fleet.base;
        c.concurrencyPerCore = 400;
        c.warmupSec = 0.05;
        c.measureSec = 0.15;
        c.statWindows = 3;
        w.rows.push_back(row);
    }
}

/** bench_million_conn's fastsocket ramp, scaled to about 120K live
 *  TCBs; tracing off as that bench forces. */
void
longlivedRamp(std::uint64_t seed, Workload &w)
{
    RowSpec row = singleMachineRow("fastsocket", KernelConfig::fastsocket(),
                                   seed);
    row.kind = RowKind::kRamp;
    ExperimentConfig &c = row.fleet.base;
    c.machine.traceEnabled = false;
    c.longLivedPermille = 900;
    c.longLivedRequests = 2;
    c.longLivedThink = fsim::ticksFromSeconds(30.0);
    c.listenBacklog = 1024;
    c.synBacklog = 4096;
    row.rampRate = 250e3;
    row.rampParked = 100'000;
    w.rows.push_back(row);
}

/** Four 4-core fastsocket haproxy machines behind two L4 balancers,
 *  open-loop Poisson arrivals, tracing on. */
void
fleetHaproxy(std::uint64_t seed, Workload &w)
{
    RowSpec row;
    row.name = "fastsocket";
    row.kind = RowKind::kFleet;
    fsim::FleetConfig &f = row.fleet;
    f.serverMachines = 4;
    f.balancers = 2;
    f.openLoopRate = 300e3;
    f.policy = fsim::L4Balancer::Policy::kRoundRobin;
    ExperimentConfig &c = f.base;
    c.app = fsim::AppKind::kHaproxy;
    c.machine.cores = 4;
    c.machine.kernel = KernelConfig::fastsocket();
    c.machine.seed = seed;
    c.backendCount = 16;
    c.warmupSec = 0.03;
    c.measureSec = 0.15;
    c.statWindows = 10;
    w.rows.push_back(row);
}

template <typename Fn>
void
forEachMachine(Testbed &bed, Fn &&fn)
{
    fn(bed.machine());
}

template <typename Fn>
void
forEachMachine(FleetTestbed &bed, Fn &&fn)
{
    for (int s = 0; s < bed.machineCount(); ++s)
        fn(bed.machine(s));
}

/** Calls into the simulator, each wrapped in a span when a log is
 *  attached (instrumented pass) and made directly otherwise. */
class Caller
{
  public:
    Caller(SpanLog *log, const std::string &row, int parent)
        : log_(log), row_(row), parent_(parent)
    {
    }

    /** @return the span's duration in seconds (0 when not logging). */
    template <typename Fn>
    double
    operator()(const char *name, Fn &&fn)
    {
        if (!log_) {
            fn();
            return 0.0;
        }
        const int id = log_->open(name, row_, parent_);
        fn();
        log_->close(id);
        const Span &s = log_->spans()[static_cast<std::size_t>(id)];
        return s.end - s.start;
    }

  private:
    SpanLog *log_;
    const std::string &row_;
    int parent_;
};

/** Testbed::run() / FleetTestbed::run(), call for call. */
template <typename Bed>
void
driveWindows(Bed &bed, const ExperimentConfig &c, Caller &call,
             RowOutcome &o, std::uint64_t &startedMark)
{
    fsim::EventQueue &eq = bed.eventQueue();
    call("startLoad", [&] { bed.startLoad(); });
    call("warmup", [&] {
        bed.runUntilChecked(eq.now() + fsim::ticksFromSeconds(c.warmupSec));
    });
    call("markWindows", [&] { bed.markWindows(); });
    startedMark = bed.load().started();
    const int wins = std::max(1, c.statWindows);
    const Tick begin = eq.now();
    const Tick measure = fsim::ticksFromSeconds(c.measureSec);
    for (int w = 0; w < wins; ++w) {
        const Tick wstart = eq.now();
        call("window", [&] {
            bed.runUntilChecked(begin + measure * (w + 1) / wins);
        });
        if constexpr (std::is_same_v<Bed, FleetTestbed>) {
            const Tick wend = eq.now();
            o.sampleS += call("sampleObservability", [&] {
                bed.sampleObservability(wstart, wend);
            });
        }
    }
    o.collectS = call("collect", [&] { o.result = bed.collect(); });
}

/** bench_million_conn's ramp: open loop, checkpoints, short window. */
void
driveRamp(Testbed &bed, const RowSpec &row, Caller &call, RowOutcome &o,
          std::uint64_t &startedMark)
{
    fsim::EventQueue &eq = bed.eventQueue();
    fsim::KernelStack &kern = bed.machine().kernel();
    const double share =
        static_cast<double>(row.fleet.base.longLivedPermille) / 1000.0;
    const double rampSec =
        static_cast<double>(row.rampParked) / (row.rampRate * share);
    call("startOpenLoop", [&] { bed.load().startOpenLoop(row.rampRate); });

    std::vector<double> cyclesPerLookup;
    std::uint64_t prevLookups = 0, prevCycles = 0;
    const Tick t0 = eq.now();
    for (int i = 1; i <= kRampCheckpoints; ++i) {
        call("rampCheckpoint", [&] {
            bed.runUntilChecked(
                t0 + fsim::ticksFromSeconds(rampSec * i /
                                            kRampCheckpoints));
        });
        const std::uint64_t lk = kern.ehashLookups() - prevLookups;
        const std::uint64_t cy = kern.ehashLookupCycles() - prevCycles;
        prevLookups += lk;
        prevCycles += cy;
        cyclesPerLookup.push_back(
            lk ? static_cast<double>(cy) / static_cast<double>(lk) : 0.0);
    }
    // Flatness reference, as bench_million_conn defines it: the cheapest
    // second-half checkpoint (the first half fills an empty table).
    for (std::size_t i = cyclesPerLookup.size() / 2;
         i < cyclesPerLookup.size(); ++i)
        if (cyclesPerLookup[i] > 0 &&
            (o.ehashSettled == 0.0 || cyclesPerLookup[i] < o.ehashSettled))
            o.ehashSettled = cyclesPerLookup[i];
    o.ehashLast = cyclesPerLookup.empty() ? 0.0 : cyclesPerLookup.back();

    call("markWindows", [&] { bed.markWindows(); });
    startedMark = bed.load().started();
    call("window", [&] {
        bed.runUntilChecked(eq.now() +
                            fsim::ticksFromSeconds(kRampWindowSec));
    });
    o.collectS = call("collect", [&] { o.result = bed.collect(); });
}

/** Read everything a pass reports once collect() has returned. */
template <typename Bed>
void
readCounters(Bed &bed, RowOutcome &o, std::uint64_t startedMark,
             std::uint64_t runMark, std::uint64_t schedMark)
{
    fsim::HttpLoad &load = bed.load();
    fsim::EventQueue &eq = bed.eventQueue();
    o.fingerprint = o.result.fingerprint;
    o.clampedPast = eq.clampedPast();
    o.eventsRun = eq.executed() - runMark;
    o.eventsScheduled = eq.scheduled() - schedMark;
    o.completedTotal = load.completed();
    o.startedTotal = load.started();
    o.windowStarted = startedMark ? load.started() - startedMark : 0;
    o.windowCompleted = load.latencySamplesSinceMark();
    o.windowFailed = o.result.clientFailures;
    o.latencyP50Us = usFromTicks(load.latencyPercentileSinceMark(0.50));
    o.latencyP99Us = usFromTicks(load.latencyPercentileSinceMark(0.99));
    o.launchSkips = load.launchSkips();

    forEachMachine(bed, [&o](Machine &m) {
        ++o.machines;
        o.cores = m.numCores();
        const fsim::KernelStack &k = m.kernel();
        const fsim::KernelStats &ks = k.stats();
        o.cacheAccesses += m.cache().totalAccesses();
        // access() calls: every access minus the implicit local ones
        // CpuModel charges at one per cyclesPerLocalAccess busy cycles.
        const std::uint64_t local =
            m.cpu().totalBusyTicks() /
            static_cast<std::uint64_t>(m.costs().cyclesPerLocalAccess);
        const std::uint64_t acc = m.cache().totalAccesses();
        o.cacheAccessCallsEst += acc > local ? acc - local : 0;
        o.ehashLookups += k.ehashLookups();
        o.ehashProbes += k.ehashProbesWalked();
        o.ehashCycles += k.ehashLookupCycles();
        o.ehashResizes += k.ehashResizes();
        o.localEhash = k.config().localEstablished;
        o.ehashBuckets = o.localEhash ? k.config().localEhashBuckets
                                      : k.config().ehashBuckets;
        o.costs = m.costs();
        o.listenChainWalked += ks.listenChainWalked;
        o.listenLookups += ks.listenLookups;
        for (const fsim::LockClassStats *cls : m.locks().classes()) {
            o.lockAcquisitions += cls->acquisitions;
            if (cls->name == "base.lock")
                o.timerOps += cls->acquisitions;
        }
        const fsim::ConnSpanLog &sl = m.tracer().connSpans();
        o.spanAdds += sl.spansRecorded() + sl.spansDropped();
        o.spanOpened += sl.opened();
        const fsim::TcbArena &arena = k.tcbArena();
        o.tcbLivePeak += arena.peakLive();
        o.slabBytes += arena.slabBytes();
        o.timeWaitPeak += k.timeWaitTable().peakSize();
        o.portAllocFailures += ks.portAllocFailures;
    });
    o.bytesPerConn = o.tcbLivePeak ? static_cast<double>(o.slabBytes) /
                                         static_cast<double>(o.tcbLivePeak)
                                   : 0.0;
    const struct mallinfo2 mi = mallinfo2();
    o.heapMb = static_cast<double>(mi.uordblks + mi.hblkhd) / 1e6;
}

template <typename Bed>
RowOutcome
runBed(const RowSpec &row, const fsim::FleetConfig &fc, Pass pass,
       SpanLog *spans, Inject inject)
{
    RowOutcome o;
    o.row = row.name;
    const ExperimentConfig &c = fc.base;
    SpanLog *log = pass == Pass::kInstrumented ? spans : nullptr;
    const int root = log ? log->open("row", row.name, -1) : -1;
    Caller call(log, row.name, root);

    auto t0 = Clock::now();
    std::unique_ptr<Bed> bedPtr;
    call("construct", [&] {
        if constexpr (std::is_same_v<Bed, FleetTestbed>)
            bedPtr = std::make_unique<Bed>(fc);
        else
            bedPtr = std::make_unique<Bed>(c);
    });
    o.setupS = secondsSince(t0);
    Bed &bed = *bedPtr;
    fsim::EventQueue &eq = bed.eventQueue();

    const std::uint64_t runMark = eq.executed();
    const std::uint64_t schedMark = eq.scheduled();
    std::uint64_t startedMark = 0;
    if (log)
        eq.recordOps(&o.ops);
    t0 = Clock::now();
    if (row.kind == RowKind::kRamp) {
        if constexpr (std::is_same_v<Bed, Testbed>)
            driveRamp(bed, row, call, o, startedMark);
    } else if (log) {
        driveWindows(bed, c, call, o, startedMark);
    } else {
        o.result = bed.run();
    }
    o.wallS = secondsSince(t0);
    if (log)
        eq.recordOps(nullptr);

    if (inject == Inject::kClamp && row.name == "fastsocket")
        eq.schedule(eq.now() - 1, [] {});
    readCounters(bed, o, startedMark, runMark, schedMark);

    if (log) {
        o.fingerprintS = call("currentFingerprint", [&] {
            o.fingerprintRecheck = bed.currentFingerprint();
        });
        o.jsonS = call("json", [&] {
            fsim::BenchJsonReport report("perfbench");
            report.addRow(row.name, c, o.result);
            report.str();
        });
        log->close(root);
    }
    return o;
}

} // namespace

bool
makeWorkload(const std::string &name, std::uint64_t seed, Inject inject,
             Workload &out)
{
    out = Workload{};
    out.name = name;
    if (name == "shortconn-nginx-24c")
        shortconnNginx(seed, inject, out);
    else if (name == "longlived-ramp")
        longlivedRamp(seed, out);
    else if (name == "fleet-haproxy-openloop")
        fleetHaproxy(seed, out);
    else
        return false;
    return true;
}

int
SpanLog::open(const std::string &name, const std::string &row, int parent)
{
    Span s;
    s.name = name;
    s.row = row;
    s.parent = parent;
    s.start = std::chrono::duration<double>(Clock::now() - origin_).count();
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size()) - 1;
}

void
SpanLog::close(int id)
{
    spans_[static_cast<std::size_t>(id)].end =
        std::chrono::duration<double>(Clock::now() - origin_).count();
}

bool
SpanLog::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "  {\"name\": \"%s\", \"row\": \"%s\", \"start\": "
                     "%.9f, \"end\": %.9f, \"parent\": %d}%s\n",
                     s.name.c_str(), s.row.c_str(), s.start, s.end,
                     s.parent, i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    return std::fclose(f) == 0;
}

RowOutcome
runRow(const RowSpec &row, Pass pass, SpanLog *spans, Inject inject,
       std::uint64_t seedBump)
{
    fsim::FleetConfig fc = row.fleet;
    fc.base.machine.seed += seedBump;
    if (pass == Pass::kNoTrace)
        fc.base.machine.traceEnabled = false;
    if (pass == Pass::kNoCheck)
        fc.base.checkLevel = fsim::CheckLevel::kOff;
    if (row.kind == RowKind::kFleet)
        return runBed<FleetTestbed>(row, fc, pass, spans, inject);
    return runBed<Testbed>(row, fc, pass, spans, inject);
}

} // namespace perfbench
