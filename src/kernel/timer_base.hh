/**
 * @file
 * Per-core timer base: a cascading timer wheel plus the base.lock that
 * serializes arm/modify/cancel against the per-jiffy timer SoftIRQ.
 *
 * In the stock kernel a connection's timers live on the core that created
 * the socket (SoftIRQ core), while the application modifies them from its
 * own core — the cross-core traffic behind the base.lock row of Table 1.
 * With complete connection locality both contexts are the same core and
 * the lock never contends.
 */

#ifndef FSIM_KERNEL_TIMER_BASE_HH
#define FSIM_KERNEL_TIMER_BASE_HH

#include <cstdint>
#include <vector>

#include "cpu/core.hh"
#include "sim/event_fn.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"
#include "sync/spinlock.hh"
#include "timerwheel/timer_wheel.hh"

namespace fsim
{

/** One core's timer base. */
class TimerBase
{
  public:
    /** Inline capture budget for timer callbacks: the kernel's arm
     *  sites capture [this, socket-or-bucket] (16 bytes), with no
     *  headroom, because every pending timer carries it: the wheel's
     *  node holds TimerBase's [this, Callback] wrapper, and
     *  TimerWheel::kWheelCaptureMax is sized to fit exactly that. */
    static constexpr std::size_t kTimerCaptureMax = 16;
    /** Timer callback: runs in timer-SoftIRQ context on the base's core;
     *  receives (core, tick) and returns the tick after its work. */
    using Callback = InlineFn<Tick(CoreId, Tick), kTimerCaptureMax>;

    TimerBase() = default;

    void init(CoreId core, LockRegistry &locks, CacheModel &cache,
              const CycleCosts &costs, CpuModel &cpu, Tick jiffy_ticks);

    /**
     * Arm a timer @p delay_jiffies from now, from core @p c at tick @p t.
     *
     * @param[out] id Handle for mod()/cancel().
     * @return completion tick.
     */
    Tick arm(CoreId c, Tick t, std::uint64_t delay_jiffies, Callback cb,
             TimerWheel::TimerId *id);

    /** Re-arm an existing timer (mod_timer()). */
    Tick mod(CoreId c, Tick t, TimerWheel::TimerId id,
             std::uint64_t delay_jiffies);

    /** Cancel a timer. */
    Tick cancel(CoreId c, Tick t, TimerWheel::TimerId id);

    std::size_t pending() const { return wheel_.pending(); }
    std::uint64_t jiffies() const { return jiffies_; }
    CoreId core() const { return core_; }

  private:
    void ensureTicking();
    Tick runTick(Tick start);

    CoreId core_ = kInvalidCore;
    CpuModel *cpu_ = nullptr;
    CacheModel *cache_ = nullptr;
    const CycleCosts *costs_ = nullptr;
    Tick jiffyTicks_ = 0;

    SimSpinLock lock_;
    TimerWheel wheel_;
    std::uint64_t jiffies_ = 0;
    bool ticking_ = false;

    /** Timeline cursor while firing callbacks inside a tick. */
    Tick fireCursor_ = 0;
    /** True while the tick detaches expired timers under the lock. */
    bool collectMode_ = false;
    /** Callbacks detached by the current tick, run after unlock. */
    std::vector<Callback> fired_;
};

} // namespace fsim

#endif // FSIM_KERNEL_TIMER_BASE_HH
