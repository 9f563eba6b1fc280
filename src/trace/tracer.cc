#include "trace/tracer.hh"

#include "sim/logging.hh"

namespace fsim
{

Tracer::Tracer(int n_cores, std::size_t ring_capacity, bool enabled)
    : numCores_(n_cores),
      ringCapacity_(TraceRing::checkCapacity(ring_capacity)),
      phases_(n_cores)
{
    fsim_assert(n_cores > 0);
    if (n_cores > ConnSpanLog::kMaxCores)
        fsim_fatal("Tracer: %d cores exceed the %d a connection span "
                   "record's core set can name.",
                   n_cores, ConnSpanLog::kMaxCores);
    setEnabled(enabled);
}

void
Tracer::setEnabled(bool on)
{
    if (on && rings_.empty()) {
        rings_.reserve(numCores_);
        for (int c = 0; c < numCores_; ++c)
            rings_.emplace_back(ringCapacity_);
    }
    enabled_ = on;
    spans_.setEnabled(on);
}

const TraceRing &
Tracer::ring(CoreId c) const
{
    fsim_assert(c >= 0 && c < numCores_);
    if (rings_.empty()) {
        static const TraceRing kNeverEnabled(1);
        return kNeverEnabled;
    }
    return rings_[c];
}

std::uint64_t
Tracer::eventsRecorded() const
{
    std::uint64_t total = 0;
    for (const TraceRing &r : rings_)
        total += r.pushed();
    return total;
}

std::uint64_t
Tracer::eventsOverwritten() const
{
    std::uint64_t total = 0;
    for (const TraceRing &r : rings_)
        total += r.overwritten();
    return total;
}

std::uint64_t
Tracer::eventsOverwritten(CoreId c) const
{
    return ring(c).overwritten();
}

} // namespace fsim
