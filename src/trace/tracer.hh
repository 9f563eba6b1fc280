/**
 * @file
 * The per-machine tracer: the simulator's perf + /proc/lockstat.
 *
 * Owns the PhaseAccounting layer, the connection span log and one
 * fixed-size depth recorder per sampled kernel queue. Every hook is
 * branch-cheap and allocation-free, so instrumentation stays enabled in
 * every run; components reached through long init chains (locks, epoll,
 * VFS) find the tracer through the LockRegistry instead of growing their
 * constructor signatures. The depth recorders are allocated the first
 * time the tracer is enabled, so a machine that never traces never pays
 * for them.
 */

#ifndef FSIM_TRACE_TRACER_HH
#define FSIM_TRACE_TRACER_HH

#include <array>
#include <cstdint>
#include <vector>

#include "sim/types.hh"
#include "trace/conn_span.hh"
#include "trace/phase_accounting.hh"
#include "trace/trace_event.hh"

namespace fsim
{

/** One queue-depth observation. */
struct QueueSample
{
    Tick tick = 0;
    std::uint32_t depth = 0;
    TraceQueueId queue = TraceQueueId::kAcceptShared;
};

/**
 * Depth samples of one queue over a whole run, in a fixed buffer.
 *
 * Keeps every stride-th note. When the buffer is full it keeps every
 * other sample and doubles the stride, so the samples held are always
 * evenly spaced (by note count) over everything noted so far, and the
 * same note stream always keeps the same samples.
 */
class QueueDepthRecorder
{
  public:
    /** Most samples one queue keeps. */
    static constexpr std::size_t kCapacity = 512;

    /** Allocate the buffer (idempotent; the only allocation). */
    void allocate() { samples_.reserve(kCapacity); }

    void
    note(TraceQueueId queue, Tick tick, std::uint32_t depth)
    {
        const std::uint64_t i = noted_++;
        if ((i & (stride_ - 1)) != 0)
            return;
        if (samples_.size() == kCapacity) {
            for (std::size_t k = 0; k < kCapacity / 2; ++k)
                samples_[k] = samples_[2 * k];
            samples_.resize(kCapacity / 2);
            stride_ *= 2;
        }
        samples_.push_back(QueueSample{tick, depth, queue});
    }

    /** Kept samples, in note order. */
    const std::vector<QueueSample> &samples() const { return samples_; }
    /** Notes taken. */
    std::uint64_t noted() const { return noted_; }
    /** Notes the decimation dropped (noted - kept). */
    std::uint64_t dropped() const { return noted_ - samples_.size(); }
    /** Notes per kept sample (a power of two). */
    std::uint64_t stride() const { return stride_; }

  private:
    std::vector<QueueSample> samples_;
    std::uint64_t noted_ = 0;
    std::uint64_t stride_ = 1;
};

/** Per-machine trace subsystem. */
class Tracer
{
  public:
    explicit Tracer(int n_cores, bool enabled = true);

    /** Master switch; depth notes, phase charges and the span log honor
     *  it. The first enable allocates the depth recorders; a later
     *  disable keeps them (and what they recorded). */
    void setEnabled(bool on);
    bool enabled() const { return enabled_; }

    /** Record that @p queue holds @p depth entries at @p tick. */
    void
    noteQueueDepth(TraceQueueId queue, Tick tick, std::size_t depth)
    {
        if (enabled_)
            queues_[static_cast<int>(queue)].note(
                queue, tick, static_cast<std::uint32_t>(depth));
    }

    /** @name Phase attribution (see PhaseAccounting) */
    /** @{ */
    void
    pushPhase(CoreId c, Phase p, Tick t)
    {
        if (enabled_)
            phases_.push(c, p, t);
    }

    void
    popPhase(CoreId c, Tick t)
    {
        if (enabled_)
            phases_.pop(c, t);
    }

    void
    chargePhase(CoreId c, Phase p, Tick cycles)
    {
        if (enabled_)
            phases_.charge(c, p, cycles);
    }
    /** @} */

    /** Convenience hook for lock spins: a lock-spin phase charge. */
    void
    noteLockSpin(CoreId c, Tick spin)
    {
        if (enabled_ && spin != 0)
            phases_.charge(c, Phase::kLockSpin, spin);
    }

    /** Convenience hook for cache stalls: a cache-stall phase charge. */
    void
    noteCacheStall(CoreId c, Tick cycles)
    {
        if (enabled_)
            phases_.charge(c, Phase::kCacheStall, cycles);
    }

    /** The depth recorder of @p queue. */
    const QueueDepthRecorder &
    queueDepths(TraceQueueId queue) const
    {
        return queues_[static_cast<int>(queue)];
    }

    int numCores() const { return numCores_; }

    PhaseSnapshot phaseSnapshot() const { return phases_.snapshot(); }
    const PhaseAccounting &phases() const { return phases_; }

    /** Depth notes taken / dropped by decimation, over all queues. */
    std::uint64_t depthNotes() const;
    std::uint64_t depthNotesDropped() const;

    /** Per-connection lifecycle span log. */
    ConnSpanLog &connSpans() { return spans_; }
    const ConnSpanLog &connSpans() const { return spans_; }

  private:
    int numCores_;
    bool enabled_ = false;
    std::array<QueueDepthRecorder, kNumTraceQueues> queues_;
    PhaseAccounting phases_;
    ConnSpanLog spans_;
};

} // namespace fsim

#endif // FSIM_TRACE_TRACER_HH
