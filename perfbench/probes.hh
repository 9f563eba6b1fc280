/**
 * @file
 * Per-call host-cost probes for the simulator's hottest functions.
 *
 * Each probe builds the structure standalone through its public header,
 * sizes it from a traced run (cores, table population, number of calls)
 * and times a loop of calls with std::chrono::steady_clock. The result
 * is host nanoseconds per call; multiplied by the run's call count and
 * divided by the run's wall time it gives the implied share of wall_s.
 */

#ifndef PERFBENCH_PROBES_HH
#define PERFBENCH_PROBES_HH

#include <cstdint>

#include "cpu/cycle_costs.hh"

namespace perfbench
{

/** Sizes taken from the traced run. */
struct ProbeSizes
{
    int cores = 24;
    fsim::CycleCosts costs;
    /** Cache objects live at once (one per live TCB, at least 1024). */
    std::uint64_t cacheObjects = 1024;
    std::uint64_t cacheCalls = 0;
    /** Entries per established table and its starting bucket count. */
    std::uint64_t ehashPopulation = 0;
    int ehashBuckets = 2048;
    bool ehashResizable = true;
    std::uint64_t ehashCalls = 0;
    std::uint64_t lockCalls = 0;
    /** Span adds per connection trace. */
    std::uint64_t spansPerConn = 8;
    std::uint64_t spanCalls = 0;
};

/** Host nanoseconds per call. */
struct ProbeResult
{
    double cacheAccessNs = 0.0;
    double ehashLookupNs = 0.0;
    double runLockedNs = 0.0;
    double spanAddNs = 0.0;
};

ProbeResult runProbes(const ProbeSizes &sizes, std::uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_PROBES_HH
