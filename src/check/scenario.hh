/**
 * @file
 * Property-based scenario fuzzing for the simulator.
 *
 * A Scenario is a compact, serializable description of one bounded
 * experiment: core count, application, kernel flavor/features, load
 * shape, loss injection, backlog and NUMA knobs. Scenarios are generated
 * valid-by-construction from a seed (the Fastsocket feature lattice is
 * respected: E requires L and R), run with all invariants armed at
 * kPeriodic plus a same-seed determinism double-run, and — on violation —
 * greedily shrunk toward a minimal reproducer that can be committed to
 * tests/corpus/ and replayed as a regression test.
 */

#ifndef FSIM_CHECK_SCENARIO_HH
#define FSIM_CHECK_SCENARIO_HH

#include <cstdint>
#include <functional>
#include <string>

#include "check/invariants.hh"
#include "harness/experiment.hh"
#include "sim/rng.hh"

namespace fsim
{

/** One fuzzable experiment description (key=value serializable; the
 *  keys, their types and defaults are listed in scenario_keys.def). */
struct Scenario
{
#define SCENARIO_KEY(type, name, init) type name = init;
#include "check/scenario_keys.def"
#undef SCENARIO_KEY

    /** Materialize the harness config this scenario describes. */
    ExperimentConfig toConfig() const;

    bool operator==(const Scenario &) const = default;
};

/** Draw a valid random scenario from @p rng. */
Scenario randomScenario(Rng &rng);

/** "key = value" text form (reproducer files): one line per key whose
 *  value differs from Scenario{}. */
std::string serializeScenario(const Scenario &s);

/**
 * Parse serializeScenario() output (unknown keys and blank/#-comment
 * lines are ignored). @return false and fills @p err on malformed input.
 */
bool parseScenario(const std::string &text, Scenario &out,
                   std::string &err);

/** What one bounded run of a scenario produced. */
struct RunTotals
{
    bool drained = false;            //!< quiesced under the sim-time cap

    /** @name Application-level observables (summed over machines) */
    /** @{ */
    std::uint64_t started = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t responses = 0;
    std::uint64_t bytesReceived = 0;
    std::uint64_t served = 0;        //!< server-side response count
    /** @} */

    /** @name Performance observables */
    /** @{ */
    Tick drainTick = 0;              //!< sim time at quiesce
    std::uint64_t lockWaitTicks = 0; //!< spin-wait cycles, all classes
    std::uint64_t busyTicks = 0;     //!< total core busy cycles
    /** @} */

    std::uint64_t fingerprint = 0;
    InvariantReport invariants;      //!< periodic + final + quiesce checks
};

/**
 * Drive @p s once to quiescence (or its sim-time cap) with every
 * invariant armed: periodic conservation passes, a final pass, quiesce
 * leak checks where the run can leak-check, and trace stitching behind
 * a balancer tier.
 */
RunTotals runScenarioOnce(const Scenario &s);

/** Outcome of fuzzing one scenario. */
struct ScenarioResult
{
    bool drained = false;        //!< quiesced under the sim-time cap
    bool deterministic = false;  //!< double-run fingerprints matched
    std::uint64_t fingerprint = 0;
    std::uint64_t fingerprint2 = 0;
    InvariantReport invariants;  //!< periodic + final + quiesce checks

    bool ok() const { return drained && deterministic && invariants.ok(); }
    std::string summary() const;
};

/** Run @p s twice (runScenarioOnce) and compare the two fingerprints. */
ScenarioResult runScenario(const Scenario &s);

/**
 * Greedily shrink @p failing while @p fails still returns true, trying
 * at most @p budget candidate scenarios. Shrink moves: drop the fleet
 * tier (then machines, balancers, steering policy), drop features
 * toward the baseline kernel, zero loss, shrink cores / concurrency /
 * maxConns / backlog, disable trace. Returns the smallest still-failing
 * scenario found (possibly @p failing itself).
 */
Scenario shrinkScenario(const Scenario &failing,
                        const std::function<bool(const Scenario &)> &fails,
                        int budget);

} // namespace fsim

#endif // FSIM_CHECK_SCENARIO_HH
