/**
 * @file
 * Differential oracle: run the SAME bounded workload under the baseline
 * 2.6.32 kernel and under Fastsocket, then compare.
 *
 * The paper's whole claim is that Fastsocket changes *how fast* the
 * kernel serves connections without changing *what* it serves. That
 * split is directly checkable in the simulator: application-level
 * observables (connections completed, responses, bytes delivered to
 * clients) must be bit-identical across kernels, while performance
 * observables (drain time, lock wait cycles) must differ in the paper's
 * direction once enough cores are contended.
 *
 * Any app-level mismatch means one of the kernel models corrupted,
 * dropped, or duplicated work — exactly the class of bug a throughput
 * benchmark can never see.
 */

#ifndef FSIM_CHECK_DIFFERENTIAL_HH
#define FSIM_CHECK_DIFFERENTIAL_HH

#include <string>
#include <vector>

#include "check/scenario.hh"

namespace fsim
{

/** Result of one differential run. */
struct DifferentialOutcome
{
    RunTotals base;
    RunTotals fast;
    /** App-level observables that differ ("completed: 2000 vs 1999"). */
    std::vector<std::string> mismatches;
    /** Perf moved in the paper's direction (only asserted >= 4 cores:
     *  below that the baseline is not meaningfully contended). */
    bool perfDirectionOk = true;
    std::string perfDetail;

    bool appMatch() const { return mismatches.empty(); }
    bool ok() const
    {
        return appMatch() && perfDirectionOk && base.invariants.ok() &&
               fast.invariants.ok() && base.drained && fast.drained;
    }
    std::string summary() const;
};

/**
 * Run @p s (its kernel replaced) under base 2.6.32 and then under
 * Fastsocket, each through runScenarioOnce(), and diff the outcomes.
 * The app-level bar is meant for one machine, and for faults only where
 * both kernels draw identical fates (see bench/diff_oracle.cc).
 */
DifferentialOutcome runDifferential(const Scenario &s);

} // namespace fsim

#endif // FSIM_CHECK_DIFFERENTIAL_HH
