/**
 * @file
 * Benchmark driver: runs one workload for a given seed and prints every
 * metric by name and unit, then one JSON result line.
 *
 *   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
 *                    [--commit SHA] [--source DIGEST] [--out DIR]
 *                    [--inject KIND]
 *
 * --trace 0 repeats the shipped pass until S seconds have passed and
 * reports the end-to-end metrics (medians over repetitions for host
 * times). --trace 1 runs the traced run: shipped, instrumented, no-trace
 * and no-check passes per row, the op-stream replay and the per-call
 * probes, and reports the per-layer metrics. Every run checks the
 * outputs; a failed check makes the result incorrect and the exit
 * status 1. --inject is for the self-tests only.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "probes.hh"
#include "sim/event_queue.hh"
#include "workloads.hh"

namespace perfbench
{
namespace
{

using Clock = std::chrono::steady_clock;

/** Lock classes whose per-connection cost the traced run reports. */
const char *const kLockClasses[] = {
    "dcache_lock", "inode_lock", "slock", "ep.lock",
    "base.lock", "ehash.lock", "portbind.lock",
};

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
    Inject inject = Inject::kNone;
    std::string commit = "unknown";
    std::string source = "unknown";   //!< digest of the measured sources
    std::string outDir;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench_driver: %s\nusage: perfbench_driver "
                 "--workload NAME [--seed N] [--seconds S] [--trace 0|1] "
                 "[--commit SHA] [--source DIGEST] [--out DIR] "
                 "[--inject fingerprint|clamp|shape]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string v = argv[++i];
        if (flag == "--workload")
            a.workload = v;
        else if (flag == "--seed")
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (flag == "--seconds")
            a.seconds = std::atof(v.c_str());
        else if (flag == "--trace")
            a.trace = std::atoi(v.c_str());
        else if (flag == "--commit")
            a.commit = v;
        else if (flag == "--source")
            a.source = v;
        else if (flag == "--out")
            a.outDir = v;
        else if (flag == "--inject") {
            if (v == "fingerprint")
                a.inject = Inject::kFingerprint;
            else if (v == "clamp")
                a.inject = Inject::kClamp;
            else if (v == "shape")
                a.inject = Inject::kShape;
            else
                usage(("unknown --inject " + v).c_str());
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (a.workload.empty())
        usage("--workload is required");
    if (a.trace != 0 && a.trace != 1)
        usage("--trace takes 0 or 1");
    if (!(a.seconds > 0.0))
        usage("--seconds must be positive");
    return a;
}

/** Correctness checks of one run; any failure makes the run incorrect. */
class Checks
{
  public:
    void
    expect(bool ok, const std::string &what)
    {
        std::printf("check %-4s %s\n", ok ? "ok" : "FAIL", what.c_str());
        if (!ok)
            ++failed_;
    }

    int failed() const { return failed_; }

  private:
    int failed_ = 0;
};

std::string
fmt(const char *f, ...) __attribute__((format(printf, 1, 2)));

std::string
fmt(const char *f, ...)
{
    char buf[512];
    va_list ap;
    va_start(ap, f);
    std::vsnprintf(buf, sizeof(buf), f, ap);
    va_end(ap);
    return buf;
}

/** Metrics in print order. */
class Metrics
{
  public:
    void
    set(const std::string &name, double value, const char *unit)
    {
        if (!std::isfinite(value))
            value = 0.0;
        rows_.push_back({name, value, unit});
    }

    void
    print(bool correct, std::uint64_t attempted,
          std::uint64_t failed) const
    {
        std::printf("\n%-48s %22s  %s\n", "metric", "value", "unit");
        for (const Row &r : rows_)
            std::printf("%-48s %22.6f  %s\n", r.name.c_str(), r.value,
                        r.unit);
        std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": "
                    "%llu, \"metrics\": {",
                    correct ? "true" : "false",
                    static_cast<unsigned long long>(attempted),
                    static_cast<unsigned long long>(failed));
        for (std::size_t i = 0; i < rows_.size(); ++i)
            std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                        i ? ", " : "", rows_[i].name.c_str(),
                        rows_[i].value, rows_[i].unit);
        std::printf("}}\n");
    }

  private:
    struct Row
    {
        std::string name;
        double value;
        const char *unit;
    };
    std::vector<Row> rows_;
};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

double
elapsedSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;   // KiB on Linux
}

const RowOutcome *
findRow(const std::vector<RowOutcome> &rows, const char *name)
{
    for (const RowOutcome &r : rows)
        if (r.row == name)
            return &r;
    return nullptr;
}

/** Checks every pass makes on every row. */
void
checkRow(Checks &ck, const std::string &where, const RowOutcome &o,
         bool openLoop)
{
    ck.expect(o.result.invariants.ok(),
              fmt("%s invariants: %s", where.c_str(),
                  o.result.invariants.summary().c_str()));
    ck.expect(o.clampedPast == 0,
              fmt("%s EventQueue::clampedPast() = %llu", where.c_str(),
                  static_cast<unsigned long long>(o.clampedPast)));
    if (openLoop)
        ck.expect(o.launchSkips == 0,
                  fmt("%s open-loop launches deferred = %llu",
                      where.c_str(),
                      static_cast<unsigned long long>(o.launchSkips)));
}

/** Checks on the rows of one pass as a whole (the paper's shapes). */
void
checkShapes(Checks &ck, const Workload &w,
            const std::vector<RowOutcome> &rows)
{
    const RowOutcome *fast = findRow(rows, "fastsocket");
    ck.expect(fast && fast->windowCompleted >= 1000,
              fmt("fastsocket latency samples %llu >= 1000",
                  static_cast<unsigned long long>(
                      fast ? fast->windowCompleted : 0)));
    const RowOutcome *l313 = findRow(rows, "linux313");
    const RowOutcome *base = findRow(rows, "base2632");
    if (fast && l313 && base)
        ck.expect(fast->result.cps > l313->result.cps &&
                      l313->result.cps > base->result.cps,
                  fmt("cps fastsocket %.0f > linux313 %.0f > base2632 %.0f",
                      fast->result.cps, l313->result.cps,
                      base->result.cps));
    for (std::size_t i = 0; i < w.rows.size(); ++i)
        if (w.rows[i].kind == RowKind::kRamp)
            ck.expect(rows[i].ehashSettled > 0 &&
                          rows[i].ehashLast <= 1.10 * rows[i].ehashSettled,
                      fmt("ehash cycles/lookup last %.2f <= 1.10 x "
                          "settled %.2f",
                          rows[i].ehashLast, rows[i].ehashSettled));
}

bool
isOpenLoop(const RowSpec &r)
{
    return r.kind == RowKind::kRamp || r.fleet.openLoopRate > 0.0;
}

struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    add(const std::vector<RowOutcome> &rows)
    {
        for (const RowOutcome &o : rows) {
            attempted += o.windowCompleted + o.windowFailed;
            failed += o.windowFailed;
        }
    }
};

std::vector<RowOutcome>
runPass(const Workload &w, Pass pass, SpanLog *spans, Inject inject,
        std::uint64_t seedBump, Checks &ck, const char *passName)
{
    std::vector<RowOutcome> out;
    for (std::size_t i = 0; i < w.rows.size(); ++i) {
        out.push_back(runRow(w.rows[i], pass, spans, inject, seedBump));
        checkRow(ck, std::string(passName) + "/" + w.rows[i].name,
                 out.back(), isOpenLoop(w.rows[i]));
    }
    return out;
}

double
sumOf(const std::vector<RowOutcome> &rows, double RowOutcome::*f)
{
    double s = 0.0;
    for (const RowOutcome &o : rows)
        s += o.*f;
    return s;
}

/** End-to-end run: the shipped pass, repeated for the whole budget. */
int
runEndToEnd(const Args &a, const Workload &w)
{
    Checks ck;
    Tally tally;
    std::vector<double> walls, setups, connsPerHostS;
    std::vector<RowOutcome> first;
    const auto t0 = Clock::now();
    for (int rep = 0; rep < 2 || elapsedSince(t0) < a.seconds; ++rep) {
        const std::uint64_t bump =
            a.inject == Inject::kFingerprint && rep == 1 ? 1 : 0;
        std::vector<RowOutcome> rows =
            runPass(w, Pass::kShipped, nullptr, a.inject, bump, ck,
                    "shipped");
        tally.add(rows);
        const double wall = sumOf(rows, &RowOutcome::wallS);
        double completed = 0.0;
        for (const RowOutcome &o : rows)
            completed += static_cast<double>(o.completedTotal);
        walls.push_back(wall);
        setups.push_back(sumOf(rows, &RowOutcome::setupS));
        connsPerHostS.push_back(ratio(completed, wall));
        std::printf("rep %d: wall %.4f s, setup %.4f s\n", rep, wall,
                    setups.back());
        if (rep == 0) {
            checkShapes(ck, w, rows);
            first = std::move(rows);
            continue;
        }
        for (std::size_t i = 0; i < rows.size(); ++i)
            ck.expect(rows[i].fingerprint == first[i].fingerprint,
                      fmt("rep %d/%s fingerprint %016llx == rep 0's "
                          "%016llx",
                          rep, rows[i].row.c_str(),
                          static_cast<unsigned long long>(
                              rows[i].fingerprint),
                          static_cast<unsigned long long>(
                              first[i].fingerprint)));
    }

    const RowOutcome &fast = *findRow(first, "fastsocket");
    std::uint64_t ok = 0, bad = 0;
    for (const RowOutcome &o : first) {
        ok += o.windowCompleted;
        bad += o.windowFailed;
        std::printf("row %-10s fingerprint %016llx cps %.1f p50 %.3f us "
                    "p99 %.3f us samples %llu failed %llu\n",
                    o.row.c_str(),
                    static_cast<unsigned long long>(o.fingerprint),
                    o.result.cps, o.latencyP50Us, o.latencyP99Us,
                    static_cast<unsigned long long>(o.windowCompleted),
                    static_cast<unsigned long long>(o.windowFailed));
    }

    Metrics m;
    m.set("wall_s", median(walls), "s");
    m.set("setup_s", median(setups), "s");
    m.set("sim_conns_per_host_s", median(connsPerHostS), "1/s");
    m.set("peak_rss_mb", peakRssMb(), "MB");
    m.set("sim_cps", fast.result.cps, "1/s");
    m.set("sim_latency_p50_us", fast.latencyP50Us, "us");
    m.set("sim_latency_p99_us", fast.latencyP99Us, "us");
    m.set("success_ratio",
          ratio(static_cast<double>(ok), static_cast<double>(ok + bad)),
          "ratio");
    std::printf("repetitions %zu, latency samples %llu\n", walls.size(),
                static_cast<unsigned long long>(fast.windowCompleted));
    const bool correct = ck.failed() == 0 && tally.failed == 0;
    m.print(correct, tally.attempted,
            tally.failed + static_cast<std::uint64_t>(ck.failed()));
    return correct ? 0 : 1;
}

/** Replay a recorded op stream through a bare queue; @return seconds. */
double
replayOps(const std::vector<fsim::EventQueue::SchedOp> &ops,
          std::uint64_t &executed)
{
    std::uint64_t fired = 0;
    const auto t0 = Clock::now();
    {
        fsim::EventQueue q;
        for (const fsim::EventQueue::SchedOp &op : ops) {
            const std::uint64_t runs =
                std::min<std::uint64_t>(op.runs, q.pending());
            for (std::uint64_t r = 0; r < runs; ++r)
                q.runOne();
            q.schedule(q.now() + op.delta, [&fired] { ++fired; });
        }
        q.runAll();
        executed = q.executed();
    }
    const double s = elapsedSince(t0);
    return fired == executed ? s : -1.0;
}

/** Per-row sums and medians over the traced run's rounds. */
struct RoundTimes
{
    std::vector<double> shipped, instrumented, noTrace, noCheck, replay,
        heapDelta, collect, json, fingerprint, sample;
};

double
perConn(std::uint64_t v, const RowOutcome &o)
{
    return ratio(static_cast<double>(v),
                 static_cast<double>(o.windowStarted));
}

double
phasePerConn(const RowOutcome &o, fsim::Phase p)
{
    std::uint64_t s = 0;
    for (const auto &core : o.result.phaseCycles.perCore)
        s += core[static_cast<std::size_t>(p)];
    return perConn(s, o);
}

std::uint64_t
lockSpin(const RowOutcome &o)
{
    std::uint64_t s = 0;
    for (const auto &kv : o.result.locks)
        s += kv.second.waitTicks;
    return s;
}

fsim::LockClassStats
lockOf(const RowOutcome &o, const char *name)
{
    auto it = o.result.locks.find(name);
    return it == o.result.locks.end() ? fsim::LockClassStats{} : it->second;
}

/** Traced run: per-layer metrics from outside the program. */
int
runTraced(const Args &a, const Workload &w)
{
    Checks ck;
    Tally tally;
    SpanLog spans;
    RoundTimes rt;
    std::vector<RowOutcome> inst;   // last round's instrumented pass
    std::uint64_t clamped = 0, invariantsFailed = 0;
    const auto t0 = Clock::now();
    for (int round = 0; round < 1 || elapsedSince(t0) < a.seconds;
         ++round) {
        std::vector<RowOutcome> shipped, instr, noTrace, noCheck;
        double replayS = 0.0;
        for (std::size_t i = 0; i < w.rows.size(); ++i) {
            const RowSpec &row = w.rows[i];
            const bool open = isOpenLoop(row);
            shipped.push_back(
                runRow(row, Pass::kShipped, nullptr, a.inject, 0));
            checkRow(ck, "shipped/" + row.name, shipped.back(), open);
            instr.push_back(
                runRow(row, Pass::kInstrumented, &spans, a.inject, 0));
            checkRow(ck, "traced/" + row.name, instr.back(), open);
            // Replay and free the op stream before the next pass, so it
            // weighs on neither that pass's heap nor its wall time.
            RowOutcome &t = instr.back();
            std::uint64_t replayed = 0;
            const double r = replayOps(t.ops, replayed);
            ck.expect(r >= 0.0 && replayed == t.ops.size() &&
                          t.ops.size() == t.eventsScheduled,
                      fmt("%s replay executed %llu == recorded ops %llu "
                          "== live events scheduled %llu",
                          row.name.c_str(),
                          static_cast<unsigned long long>(replayed),
                          static_cast<unsigned long long>(t.ops.size()),
                          static_cast<unsigned long long>(
                              t.eventsScheduled)));
            replayS += std::max(r, 0.0);
            std::vector<fsim::EventQueue::SchedOp>().swap(t.ops);
            noTrace.push_back(runRow(
                row, Pass::kNoTrace, nullptr, a.inject,
                a.inject == Inject::kFingerprint ? 1 : 0));
            checkRow(ck, "notrace/" + row.name, noTrace.back(), open);
            noCheck.push_back(
                runRow(row, Pass::kNoCheck, nullptr, a.inject, 0));
            checkRow(ck, "nocheck/" + row.name, noCheck.back(), open);

            const RowOutcome &s = shipped.back();
            const std::uint64_t fps[] = {
                t.fingerprint, t.fingerprintRecheck,
                noTrace.back().fingerprint, noCheck.back().fingerprint};
            const char *names[] = {"traced", "traced recheck", "notrace",
                                   "nocheck"};
            for (int k = 0; k < 4; ++k)
                ck.expect(fps[k] == s.fingerprint,
                          fmt("%s fingerprint %s %016llx == shipped "
                              "%016llx",
                              row.name.c_str(), names[k],
                              static_cast<unsigned long long>(fps[k]),
                              static_cast<unsigned long long>(
                                  s.fingerprint)));
        }
        checkShapes(ck, w, shipped);
        for (const auto *pass : {&shipped, &instr, &noTrace, &noCheck}) {
            tally.add(*pass);
            for (const RowOutcome &o : *pass) {
                clamped += o.clampedPast;
                invariantsFailed += o.result.invariants.violationCount;
            }
        }
        rt.shipped.push_back(sumOf(shipped, &RowOutcome::wallS));
        rt.instrumented.push_back(sumOf(instr, &RowOutcome::wallS));
        rt.noTrace.push_back(sumOf(noTrace, &RowOutcome::wallS));
        rt.noCheck.push_back(sumOf(noCheck, &RowOutcome::wallS));
        rt.replay.push_back(replayS);
        rt.heapDelta.push_back(sumOf(shipped, &RowOutcome::heapMb) -
                               sumOf(noTrace, &RowOutcome::heapMb));
        rt.collect.push_back(sumOf(instr, &RowOutcome::collectS));
        rt.json.push_back(sumOf(instr, &RowOutcome::jsonS));
        rt.fingerprint.push_back(sumOf(instr, &RowOutcome::fingerprintS));
        rt.sample.push_back(sumOf(instr, &RowOutcome::sampleS));
        std::printf("round %d: shipped %.4f s, traced %.4f s, notrace "
                    "%.4f s, nocheck %.4f s, replay %.4f s\n",
                    round, rt.shipped.back(), rt.instrumented.back(),
                    rt.noTrace.back(), rt.noCheck.back(), replayS);
        inst = std::move(instr);
    }

    const RowOutcome &f = *findRow(inst, "fastsocket");
    std::uint64_t events = 0, cacheCalls = 0, ehashCalls = 0, lockCalls = 0,
                  spanCalls = 0, traceRec = 0, traceOver = 0;
    for (const RowOutcome &o : inst) {
        events += o.eventsRun;
        cacheCalls += o.cacheAccessCallsEst;
        ehashCalls += o.ehashLookups;
        lockCalls += o.lockAcquisitions;
        spanCalls += o.spanAdds;
        traceRec += o.result.traceEventsRecorded;
        traceOver += o.result.traceEventsOverwritten;
    }

    ProbeSizes ps;
    ps.cores = f.cores;
    ps.costs = f.costs;
    ps.cacheObjects = std::max<std::uint64_t>(
        1024, f.tcbLivePeak / std::max(1, f.machines));
    ps.cacheCalls = cacheCalls;
    const std::uint64_t tables =
        static_cast<std::uint64_t>(std::max(1, f.machines)) *
        static_cast<std::uint64_t>(f.localEhash ? std::max(1, f.cores) : 1);
    ps.ehashPopulation = std::max<std::uint64_t>(1, f.tcbLivePeak / tables);
    ps.ehashBuckets = std::max(1, f.ehashBuckets);
    ps.ehashResizable = f.localEhash;
    ps.ehashCalls = ehashCalls;
    ps.lockCalls = lockCalls;
    ps.spansPerConn = f.spanOpened ? f.spanAdds / f.spanOpened : 8;
    ps.spanCalls = spanCalls;
    const ProbeResult pr = runProbes(ps, a.seed);
    std::printf("probes: cache %llu objs, ehash %llu entries x %llu "
                "tables, %llu spans/conn\n",
                static_cast<unsigned long long>(ps.cacheObjects),
                static_cast<unsigned long long>(ps.ehashPopulation),
                static_cast<unsigned long long>(tables),
                static_cast<unsigned long long>(ps.spansPerConn));

    const double wall = median(rt.shipped);
    const double noTrace = median(rt.noTrace);
    const double noCheck = median(rt.noCheck);
    const auto share = [wall](double ns, std::uint64_t calls) {
        return ratio(ns * static_cast<double>(calls) / 1e9, wall);
    };
    const RowOutcome *base = findRow(inst, "base2632");
    const RowOutcome *l313 = findRow(inst, "linux313");

    Metrics m;
    // sim: the DES core.
    m.set("sim.events", static_cast<double>(events), "count");
    m.set("sim.events_per_host_s", ratio(static_cast<double>(events), wall),
          "1/s");
    m.set("sim.replay_s", median(rt.replay), "s");
    m.set("sim.replay_share", ratio(median(rt.replay), wall), "ratio");
    m.set("sim.clamped_past", static_cast<double>(clamped), "count");
    // trace: the simulator's own tracing, toggled off for comparison.
    m.set("trace.overhead_s", wall - noTrace, "s");
    m.set("trace.overhead_x", ratio(wall, noTrace), "x");
    m.set("trace.rss_mb_delta", median(rt.heapDelta), "MB");
    m.set("trace.events_recorded", static_cast<double>(traceRec), "count");
    m.set("trace.overwrite_ratio",
          ratio(static_cast<double>(traceOver),
                static_cast<double>(traceRec)),
          "ratio");
    m.set("trace.span_add_ns", pr.spanAddNs, "ns");
    m.set("trace.span_add_share", share(pr.spanAddNs, spanCalls), "ratio");
    // harness / check.
    m.set("harness.collect_s", median(rt.collect), "s");
    m.set("harness.json_s", median(rt.json), "s");
    m.set("harness.traced_run_x", ratio(median(rt.instrumented), wall),
          "x");
    m.set("check.fingerprint_s", median(rt.fingerprint), "s");
    m.set("check.overhead_s", wall - noCheck, "s");
    m.set("check.invariants_failed", static_cast<double>(invariantsFailed),
          "count");
    // cpu.
    m.set("cpu.util_avg", f.result.avgUtil(), "ratio");
    m.set("cpu.l3_miss_rate", f.result.l3MissRate, "ratio");
    m.set("cpu.cache_accesses", static_cast<double>(f.cacheAccesses),
          "count");
    m.set("cpu.cache_stall_cycles_per_conn",
          phasePerConn(f, fsim::Phase::kCacheStall), "cycles/conn");
    m.set("cpu.cache_access_ns", pr.cacheAccessNs, "ns");
    m.set("cpu.cache_access_share", share(pr.cacheAccessNs, cacheCalls),
          "ratio");
    // sync, with the vfs / epollsim / timerwheel / tcp lock classes.
    for (const char *lk : kLockClasses) {
        const fsim::LockClassStats s = lockOf(f, lk);
        m.set(std::string("sync.") + lk + ".contentions_per_conn",
              perConn(s.contentions, f), "count/conn");
        m.set(std::string("sync.") + lk + ".spin_cycles_per_conn",
              perConn(s.waitTicks, f), "cycles/conn");
    }
    for (const char *lk : kLockClasses)
        m.set(std::string("sync.") + lk + ".spin_cycles_per_conn.base2632",
              base ? perConn(lockOf(*base, lk).waitTicks, *base) : 0.0,
              "cycles/conn");
    m.set("sync.lock_spin_cycles_per_conn", perConn(lockSpin(f), f),
          "cycles/conn");
    m.set("sync.lock_spin_cycles_per_conn.base2632",
          base ? perConn(lockSpin(*base), *base) : 0.0, "cycles/conn");
    m.set("sync.lock_spin_cycles_per_conn.linux313",
          l313 ? perConn(lockSpin(*l313), *l313) : 0.0, "cycles/conn");
    m.set("sync.runlocked_ns", pr.runLockedNs, "ns");
    m.set("sync.runlocked_share", share(pr.runLockedNs, lockCalls),
          "ratio");
    // kernel / tcp / fastsocket / net.
    m.set("kernel.syscall_cycles_per_conn",
          phasePerConn(f, fsim::Phase::kSyscall), "cycles/conn");
    m.set("kernel.softirq_cycles_per_conn",
          phasePerConn(f, fsim::Phase::kSoftirq), "cycles/conn");
    m.set("kernel.sim_cps_linux313", l313 ? l313->result.cps : 0.0, "1/s");
    m.set("kernel.sim_cps_base2632", base ? base->result.cps : 0.0, "1/s");
    m.set("tcp.listen_chain_per_lookup",
          ratio(static_cast<double>(f.listenChainWalked),
                static_cast<double>(f.listenLookups)),
          "entries/lookup");
    m.set("tcp.listen_chain_per_lookup.linux313",
          l313 ? ratio(static_cast<double>(l313->listenChainWalked),
                       static_cast<double>(l313->listenLookups))
               : 0.0,
          "entries/lookup");
    m.set("tcp.ehash_probes_per_lookup",
          ratio(static_cast<double>(f.ehashProbes),
                static_cast<double>(f.ehashLookups)),
          "entries/lookup");
    m.set("tcp.ehash_cycles_per_lookup",
          ratio(static_cast<double>(f.ehashCycles),
                static_cast<double>(f.ehashLookups)),
          "cycles/lookup");
    m.set("tcp.ehash_resizes", static_cast<double>(f.ehashResizes),
          "count");
    m.set("tcp.ehash_flatness", ratio(f.ehashLast, f.ehashSettled), "x");
    m.set("tcp.ehash_lookup_ns", pr.ehashLookupNs, "ns");
    m.set("tcp.ehash_lookup_share", share(pr.ehashLookupNs, ehashCalls),
          "ratio");
    m.set("fastsocket.slow_path_accept_share",
          perConn(f.result.slowPathAccepts, f), "ratio");
    m.set("net.local_pkt_share", f.result.localPktProportion, "ratio");
    m.set("net.steered_packets", static_cast<double>(f.result.steeredPackets),
          "count");
    // conn / timerwheel.
    m.set("conn.tcb_live_peak", static_cast<double>(f.tcbLivePeak),
          "count");
    m.set("conn.bytes_per_conn", f.bytesPerConn, "B");
    m.set("conn.slab_mb", static_cast<double>(f.slabBytes) / 1e6, "MB");
    m.set("conn.time_wait_peak", static_cast<double>(f.timeWaitPeak),
          "count");
    m.set("conn.port_alloc_failures",
          static_cast<double>(f.portAllocFailures), "count");
    m.set("timerwheel.ops_per_conn",
          ratio(static_cast<double>(f.timerOps),
                static_cast<double>(f.startedTotal)),
          "count/conn");
    // app.
    m.set("app.app_cycles_per_conn", phasePerConn(f, fsim::Phase::kApp),
          "cycles/conn");
    m.set("app.served", static_cast<double>(f.result.served), "count");
    m.set("app.launch_skips", static_cast<double>(f.launchSkips), "count");
    // fleet / stats.
    const fsim::FleetResult &fl = f.result.fleet;
    m.set("fleet.flows_created", static_cast<double>(fl.flowsCreated),
          "count");
    m.set("fleet.forwarded_pkts",
          static_cast<double>(fl.forwardedC2s + fl.forwardedS2c), "count");
    m.set("fleet.link_queued_us_per_pkt",
          ratio(fsim::secondsFromTicks(fl.linkQueuedTicks) * 1e6,
                static_cast<double>(fl.linkPackets)),
          "us/pkt");
    m.set("fleet.probes_sent", static_cast<double>(fl.probesSent), "count");
    m.set("fleet.shed", static_cast<double>(fl.shedNoBackend +
                                            fl.shedCapacity),
          "count");
    m.set("fleet.request_success_ratio", fl.requestSuccessRatio, "ratio");
    m.set("fleet.trace_stitch_ratio",
          ratio(static_cast<double>(fl.tracesStitched),
                static_cast<double>(fl.tracesCompleted)),
          "ratio");
    m.set("fleet.trace_orphans", static_cast<double>(fl.traceOrphans),
          "count");
    m.set("stats.sample_s", median(rt.sample), "s");

    if (!a.outDir.empty()) {
        const std::string path = a.outDir + "/spans-" + w.name + "-seed" +
                                 std::to_string(a.seed) + ".json";
        if (spans.write(path))
            std::printf("spans: %zu written to %s\n", spans.spans().size(),
                        path.c_str());
        else
            std::fprintf(stderr, "warning: cannot write %s\n",
                         path.c_str());
    }
    std::printf("rounds %zu; traced run wall %.4f s vs shipped %.4f s\n",
                rt.shipped.size(), median(rt.instrumented), wall);
    const bool correct = ck.failed() == 0 && tally.failed == 0;
    m.print(correct, tally.attempted,
            tally.failed + static_cast<std::uint64_t>(ck.failed()));
    return correct ? 0 : 1;
}

void
printProvenance(const Args &a)
{
    std::printf("{\"provenance\": {\"workload\": \"%s\", \"seed\": %llu, "
                "\"seconds\": %g, \"trace\": %d, \"commit\": \"%s\", "
                "\"source_sha256\": \"%s\", \"compiler\": \"%s\", "
                "\"cxx_flags\": \"%s\", \"build_type\": \"%s\", "
                "\"nproc\": %ld}}\n",
                a.workload.c_str(), static_cast<unsigned long long>(a.seed),
                a.seconds, a.trace, a.commit.c_str(), a.source.c_str(),
                FSIM_PERFBENCH_COMPILER, FSIM_PERFBENCH_CXX_FLAGS,
                FSIM_PERFBENCH_BUILD_TYPE, sysconf(_SC_NPROCESSORS_ONLN));
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    const Args a = parseArgs(argc, argv);
#ifndef NDEBUG
    const bool release = false;
#else
    const bool release =
        std::strcmp(FSIM_PERFBENCH_BUILD_TYPE, "Release") == 0;
#endif
    if (!release) {
        std::fprintf(stderr,
                     "perfbench_driver: refusing to time a %s build "
                     "(configure with -DCMAKE_BUILD_TYPE=Release)\n",
                     FSIM_PERFBENCH_BUILD_TYPE);
        return 2;
    }
    Workload w;
    if (!makeWorkload(a.workload, a.seed, a.inject, w))
        usage(("unknown workload " + a.workload).c_str());
    printProvenance(a);
    return a.trace ? runTraced(a, w) : runEndToEnd(a, w);
}
