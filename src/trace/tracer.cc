#include "trace/tracer.hh"

#include "sim/logging.hh"

namespace fsim
{

Tracer::Tracer(int n_cores, bool enabled)
    : numCores_(n_cores), phases_(n_cores)
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
    if (on)
        for (QueueDepthRecorder &q : queues_)
            q.allocate();
    enabled_ = on;
    spans_.setEnabled(on);
}

std::uint64_t
Tracer::depthNotes() const
{
    std::uint64_t total = 0;
    for (const QueueDepthRecorder &q : queues_)
        total += q.noted();
    return total;
}

std::uint64_t
Tracer::depthNotesDropped() const
{
    std::uint64_t total = 0;
    for (const QueueDepthRecorder &q : queues_)
        total += q.dropped();
    return total;
}

} // namespace fsim
