/**
 * @file
 * The benchmark's workloads and the passes that run them.
 *
 * A workload is a list of rows; a row is one simulated testbed (a single
 * machine, a single machine on a connection ramp, or a fleet) built
 * through the public Testbed / FleetTestbed API. A pass runs every row of
 * a workload once:
 *
 *  - kShipped: the program as shipped, driven by its own run() entry
 *    point (or, for the ramp, the same calls bench_million_conn makes).
 *    The end-to-end metrics come from this pass alone.
 *  - kInstrumented: the same call sequence made by hand, with a
 *    driver-side span around every call into the simulator, counters
 *    read at the window marks, and the event queue's op stream recorded
 *    for the replay.
 *  - kNoTrace / kNoCheck: the shipped path with tracing or invariant
 *    checking switched off, for the toggle overheads.
 *
 * Every pass must reach the same determinism fingerprint per row.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "fleet/fleet.hh"
#include "harness/experiment.hh"
#include "sim/event_queue.hh"

namespace perfbench
{

enum class Pass
{
    kShipped,
    kInstrumented,
    kNoTrace,
    kNoCheck,
};

/** Deliberate faults, used only by the self-tests to show that each
 *  correctness check fails the run. */
enum class Inject
{
    kNone,
    kFingerprint,   //!< the second pass of a run uses another seed
    kClamp,         //!< a past-tick schedule reaches the live queue
    kShape,         //!< the fastsocket row runs the base kernel
};

enum class RowKind
{
    kClosedLoop,    //!< Testbed::run()
    kRamp,          //!< open-loop connection ramp, then a short window
    kFleet,         //!< FleetTestbed::run()
};

/** One testbed of a workload. */
struct RowSpec
{
    std::string name;   //!< "fastsocket", "linux313", "base2632"
    RowKind kind = RowKind::kClosedLoop;
    /** kFleet uses the whole config; other kinds use fleet.base. */
    fsim::FleetConfig fleet;
    /** @name kRamp only */
    /** @{ */
    double rampRate = 0.0;              //!< open-loop launches per sim s
    std::uint64_t rampParked = 0;       //!< long-lived target population
    /** @} */
};

struct Workload
{
    std::string name;
    std::vector<RowSpec> rows;
};

/** Build workload @p name for @p seed; false if the name is unknown. */
bool makeWorkload(const std::string &name, std::uint64_t seed,
                  Inject inject, Workload &out);

/** One driver-side span around a call into the simulator. */
struct Span
{
    std::string name;
    std::string row;
    double start = 0.0;     //!< seconds since the log's origin
    double end = 0.0;
    int parent = -1;        //!< index into the log, -1 for a root
};

/** In-memory span log, written out once when the run ends. */
class SpanLog
{
  public:
    SpanLog() : origin_(std::chrono::steady_clock::now()) {}

    int open(const std::string &name, const std::string &row,
             int parent);
    void close(int id);
    const std::vector<Span> &spans() const { return spans_; }
    /** Write the spans as a JSON array to @p path. */
    bool write(const std::string &path) const;

  private:
    std::chrono::steady_clock::time_point origin_;
    std::vector<Span> spans_;
};

/** What one pass measured on one row. */
struct RowOutcome
{
    std::string row;
    double setupS = 0.0;    //!< testbed construction
    double wallS = 0.0;     //!< load start through collect
    fsim::ExperimentResult result;
    std::uint64_t fingerprint = 0;
    std::uint64_t clampedPast = 0;

    /** @name Client view */
    /** @{ */
    std::uint64_t completedTotal = 0;   //!< completions, whole run
    std::uint64_t startedTotal = 0;     //!< launches, whole run
    std::uint64_t windowStarted = 0;    //!< launches in the window
    std::uint64_t windowCompleted = 0;  //!< latency samples in window
    std::uint64_t windowFailed = 0;
    double latencyP50Us = 0.0;
    double latencyP99Us = 0.0;
    std::uint64_t launchSkips = 0;      //!< open-loop launches deferred
    /** @} */

    /** @name Ramp checkpoints (kRamp): ehash cycles per lookup */
    /** @{ */
    double ehashSettled = 0.0;          //!< cheapest second-half point
    double ehashLast = 0.0;
    /** @} */

    /** Heap bytes in use after collect, before teardown (MB). */
    double heapMb = 0.0;

    /** @name Run totals read at collect through public accessors */
    /** @{ */
    int cores = 0;                      //!< per machine
    int machines = 0;
    std::uint64_t cacheAccesses = 0;
    std::uint64_t cacheAccessCallsEst = 0;
    std::uint64_t ehashLookups = 0;
    std::uint64_t ehashProbes = 0;
    std::uint64_t ehashCycles = 0;
    std::uint64_t ehashResizes = 0;
    /** Established-table layout of the (last) machine. */
    bool localEhash = false;
    int ehashBuckets = 0;
    fsim::CycleCosts costs;
    std::uint64_t listenChainWalked = 0;
    std::uint64_t listenLookups = 0;
    std::uint64_t lockAcquisitions = 0;
    std::uint64_t timerOps = 0;         //!< base.lock acquisitions
    std::uint64_t spanAdds = 0;
    std::uint64_t spanOpened = 0;
    std::uint64_t tcbLivePeak = 0;
    double bytesPerConn = 0.0;
    std::uint64_t slabBytes = 0;
    std::uint64_t timeWaitPeak = 0;
    std::uint64_t portAllocFailures = 0;
    std::uint64_t eventsRun = 0;        //!< timed region
    std::uint64_t eventsScheduled = 0;  //!< timed region
    /** @} */

    /** @name kInstrumented only */
    /** @{ */
    std::vector<fsim::EventQueue::SchedOp> ops;
    double collectS = 0.0;
    double fingerprintS = 0.0;
    std::uint64_t fingerprintRecheck = 0;   //!< explicit second call
    double jsonS = 0.0;
    double sampleS = 0.0;
    /** @} */
};

/**
 * Run one row in @p pass. @p spans receives the driver's spans in the
 * instrumented pass (ignored otherwise). @p seedBump shifts the row's
 * seed (fingerprint self-test only).
 */
RowOutcome runRow(const RowSpec &row, Pass pass, SpanLog *spans,
                  Inject inject, std::uint64_t seedBump);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
