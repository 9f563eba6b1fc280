#include "trace/tracer.hh"

#include "sim/logging.hh"

namespace fsim
{

Tracer::Tracer(int n_cores, std::size_t ring_capacity)
    : phases_(n_cores)
{
    fsim_assert(n_cores > 0);
    if (n_cores > ConnSpanLog::kMaxCores)
        fsim_fatal("Tracer: %d cores exceed the %d a connection span "
                   "record's core set can name.",
                   n_cores, ConnSpanLog::kMaxCores);
    rings_.reserve(n_cores);
    for (int c = 0; c < n_cores; ++c)
        rings_.emplace_back(ring_capacity);
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
    return rings_.at(c).overwritten();
}

} // namespace fsim
