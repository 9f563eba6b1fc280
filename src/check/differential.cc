#include "check/differential.hh"

#include <sstream>

namespace fsim
{

namespace
{

void
diffField(std::vector<std::string> &out, const char *name,
          std::uint64_t base, std::uint64_t fast)
{
    if (base == fast)
        return;
    std::ostringstream os;
    os << name << ": " << base << " (base) vs " << fast << " (fastsocket)";
    out.push_back(os.str());
}

} // namespace

DifferentialOutcome
runDifferential(const Scenario &s)
{
    DifferentialOutcome out;
    Scenario run = s;
    run.kernel = "base2632";
    out.base = runScenarioOnce(run);
    run.kernel = "fastsocket";
    out.fast = runScenarioOnce(run);

    diffField(out.mismatches, "started", out.base.started,
              out.fast.started);
    diffField(out.mismatches, "completed", out.base.completed,
              out.fast.completed);
    diffField(out.mismatches, "failed", out.base.failed, out.fast.failed);
    diffField(out.mismatches, "timeouts", out.base.timeouts,
              out.fast.timeouts);
    diffField(out.mismatches, "responses", out.base.responses,
              out.fast.responses);
    diffField(out.mismatches, "bytesReceived", out.base.bytesReceived,
              out.fast.bytesReceived);
    diffField(out.mismatches, "served", out.base.served, out.fast.served);

    // Perf direction: on a contended machine Fastsocket must either
    // finish the fixed workload sooner or burn fewer lock-wait cycles
    // doing it (in practice both). Single-digit-core runs can tie, so
    // only assert from 4 cores up.
    if (s.cores >= 4 && out.base.drained && out.fast.drained) {
        bool faster = out.fast.drainTick <= out.base.drainTick;
        bool cheaper = out.fast.lockWaitTicks < out.base.lockWaitTicks;
        out.perfDirectionOk = faster || cheaper;
        std::ostringstream os;
        os << "drain " << out.base.drainTick << " -> "
           << out.fast.drainTick << " ticks, lock-wait "
           << out.base.lockWaitTicks << " -> " << out.fast.lockWaitTicks;
        out.perfDetail = os.str();
    }
    return out;
}

std::string
DifferentialOutcome::summary() const
{
    std::ostringstream os;
    os << "app " << (appMatch() ? "MATCH" : "MISMATCH");
    for (const std::string &m : mismatches)
        os << "\n  " << m;
    if (!base.drained || !fast.drained)
        os << "\n  non-drain: base=" << (base.drained ? "ok" : "STUCK")
           << " fastsocket=" << (fast.drained ? "ok" : "STUCK");
    os << "\nperf " << (perfDirectionOk ? "OK" : "WRONG-DIRECTION");
    if (!perfDetail.empty())
        os << " (" << perfDetail << ")";
    os << "\ninvariants base: " << base.invariants.summary()
       << "\ninvariants fastsocket: " << fast.invariants.summary();
    return os.str();
}

} // namespace fsim
