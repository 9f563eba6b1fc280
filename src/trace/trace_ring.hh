/**
 * @file
 * Fixed-capacity per-core trace event ring.
 *
 * The ring is preallocated at construction and never allocates on the
 * hot path; when full it overwrites the oldest event (ftrace's default
 * overwrite mode), so the ring always holds the most recent window of
 * activity. Total pushes are counted, so the number of overwritten
 * events is always recoverable. Capacity is a power of two so every
 * push indexes with a mask instead of a division.
 */

#ifndef FSIM_TRACE_TRACE_RING_HH
#define FSIM_TRACE_TRACE_RING_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/logging.hh"
#include "trace/trace_event.hh"

namespace fsim
{

/** One core's event ring (overwrite-oldest semantics). */
class TraceRing
{
  public:
    explicit TraceRing(std::size_t capacity)
        : buf_(checkCapacity(capacity)), mask_(capacity - 1)
    {
    }

    /** Fatal unless @p capacity is a power of two; returns it. */
    static std::size_t
    checkCapacity(std::size_t capacity)
    {
        if (capacity == 0 || (capacity & (capacity - 1)) != 0)
            fsim_fatal(
                "TraceRing: capacity=%zu is not a power of two: every "
                "trace emit indexes the ring with a mask. Round "
                "machine.traceRingCapacity up to a power of two.",
                capacity);
        return capacity;
    }

    /** Record @p ev, overwriting the oldest event when full. */
    void
    push(const TraceEvent &ev)
    {
        buf_[pushed_ & mask_] = ev;
        ++pushed_;
    }

    std::size_t capacity() const { return buf_.size(); }

    /** Events currently held (≤ capacity). */
    std::size_t
    size() const
    {
        return pushed_ < buf_.size() ? static_cast<std::size_t>(pushed_)
                                     : buf_.size();
    }

    /** Total events ever pushed. */
    std::uint64_t pushed() const { return pushed_; }

    /** Events lost to overwriting (pushed - size). */
    std::uint64_t overwritten() const { return pushed_ - size(); }

    /** The @p i -th retained event, oldest first (0 ≤ i < size()). */
    const TraceEvent &
    at(std::size_t i) const
    {
        std::uint64_t oldest = pushed_ - size();
        return buf_[(oldest + i) & mask_];
    }

    void
    clear()
    {
        pushed_ = 0;
    }

  private:
    std::vector<TraceEvent> buf_;
    std::uint64_t mask_;
    std::uint64_t pushed_ = 0;
};

} // namespace fsim

#endif // FSIM_TRACE_TRACE_RING_HH
