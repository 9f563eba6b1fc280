/**
 * @file
 * Linux-style hierarchical (cascading) timing wheel.
 *
 * The structure mirrors the classic kernel timer wheel: one 256-slot base
 * level (tv1) and four 64-slot cascade levels (tv2..tv5), advancing one
 * jiffy at a time and cascading a higher-level slot down whenever the lower
 * index wraps. Each simulated core owns one wheel ("timer base"), protected
 * by the base.lock the paper's Table 1 reports on.
 *
 * Each slot is an intrusive doubly linked list of node indices threaded
 * through the nodes themselves ({head, tail, count}, 12 bytes), so an
 * empty slot costs no heap memory and a busy one never reallocates.
 * cancel() and modify() detach a node eagerly in O(1) by moving the
 * slot's tail node into the hole — the order a vector's swap-with-last
 * erase gives, which fixes the firing order within a slot. (A lazy
 * cancel would leave stale entries in the slots until they were next
 * visited; under keepalive-timer churn, one mod_timer per data segment
 * with millions of live connections, those grew without bound between
 * cascades.)
 *
 * Nodes live in a generation-tagged slab (fixed-size chunks plus an
 * intrusive free list) instead of a std::unordered_map: arming a timer in
 * steady state recycles a slot instead of allocating a map node, which is
 * what keeps the timer path inside the simulator's zero-allocation
 * envelope. The slab grows one chunk at a time, so growth never copies
 * or relocates live nodes and never holds more than one chunk of unused
 * capacity. A TimerId
 * encodes {slab index, generation}, so a stale handle (cancel of an
 * already-fired timer whose slot was since reused) misses on the
 * generation check exactly like it used to miss in the map.
 * Callbacks are stored inline (InlineFn): the wheel's capture budget is
 * sized by TimerBase's context wrapper [this, TimerBase::Callback].
 */

#ifndef FSIM_TIMERWHEEL_TIMER_WHEEL_HH
#define FSIM_TIMERWHEEL_TIMER_WHEEL_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/event_fn.hh"

namespace fsim
{

/** Cascading timer wheel keyed in jiffies. */
class TimerWheel
{
  public:
    /** Inline capture budget for wheel callbacks: fits TimerBase's
     *  [this + contextful-callback] wrapper (8 + 32 bytes, padded to the
     *  callback's 16-byte alignment) with nothing to spare — grow
     *  TimerBase::kTimerCaptureMax first if a new arm site needs more.
     *  Every pending timer pays this budget in its node. */
    static constexpr std::size_t kWheelCaptureMax = 48;
    using Callback = InlineFn<void(), kWheelCaptureMax>;
    using TimerId = std::uint64_t;

    /** Sentinel for "no timer". */
    static constexpr TimerId kInvalidTimer = 0;

    explicit TimerWheel(std::uint64_t start_jiffy = 0)
        : jiffy_(start_jiffy)
    {
    }

    /**
     * Arm a timer.
     *
     * @param expires Absolute jiffy; values in the past fire on the next
     *                advance.
     * @return Handle usable with cancel()/modify().
     */
    TimerId add(std::uint64_t expires, Callback cb);

    /**
     * Cancel a pending timer.
     *
     * @return true if the timer was still pending.
     */
    bool cancel(TimerId id);

    /**
     * Re-arm a pending timer to a new expiry (like mod_timer()).
     *
     * @return true if the timer was still pending and has been moved.
     */
    bool modify(TimerId id, std::uint64_t expires);

    /**
     * Advance time to @p to_jiffy inclusive, firing expired callbacks in
     * jiffy order.
     *
     * @return number of timers fired.
     */
    std::size_t advance(std::uint64_t to_jiffy);

    /** Currently pending (armed, not cancelled) timers. */
    std::size_t pending() const { return liveCount_; }

    std::uint64_t currentJiffy() const { return jiffy_; }

    /**
     * Total entries linked across all slots. With eager detach this
     * equals pending() outside of a firing batch; the accessor exists so
     * tests can assert slot occupancy stays bounded under cancel/modify
     * churn.
     */
    std::size_t slotEntries() const;

    /** Timers moved down a level by cascades so far (cost visibility). */
    std::uint64_t cascaded() const { return cascaded_; }

    /** Node-slab capacity (memory visibility for scale tests). */
    std::size_t slabCapacity() const
    {
        return chunks_.size() * kChunkSize;
    }

    /** Nodes per slab chunk (the slab's growth step). */
    static constexpr std::uint32_t kChunkSize = 256;

  private:
    /** Slot coordinates: level 0 is tv1, 1..kLevels are tvn_[level-1]. */
    static constexpr std::uint8_t kDetached = 0xff;
    /** Null node index (list ends, empty free list). */
    static constexpr std::uint32_t kNil = 0xffffffff;

  public:
    /** A timer's slab node (public for the footprint test only). The
     *  16-byte-aligned callback leads so the fixed fields pack behind
     *  it: 96 bytes. */
    struct Node
    {
        Callback cb;
        std::uint64_t expires = 0;
        std::uint32_t gen = 0;
        std::uint32_t index = 0;
        std::uint32_t prev = kNil;
        /** Slot-list successor; the free-list link while free. */
        std::uint32_t next = kNil;
        std::uint8_t level = kDetached;
        bool live = false;
    };

  private:
    static constexpr std::uint32_t kTv1Bits = 8;
    static constexpr std::uint32_t kTvnBits = 6;
    static constexpr std::uint32_t kTv1Size = 1u << kTv1Bits;   // 256
    static constexpr std::uint32_t kTvnSize = 1u << kTvnBits;   // 64
    static constexpr std::uint32_t kLevels = 4;                 // tv2..tv5

    struct Slot
    {
        std::uint32_t head = kNil;
        std::uint32_t tail = kNil;
        std::uint32_t count = 0;
    };

    /** Node at slab index @p idx. */
    Node &
    slab(std::uint32_t idx)
    {
        return chunks_[idx / kChunkSize][idx % kChunkSize];
    }

    /** Slab lookup; nullptr when the handle is stale or invalid. */
    Node *nodeAt(TimerId id);
    /** Return a node to the free list; bumps its generation so every
     *  outstanding handle to it goes stale. */
    void freeNode(TimerId id);

    Slot &slotAt(std::uint8_t level, std::uint32_t index);
    void place(std::uint32_t idx);
    void detach(std::uint32_t idx);
    void cascade(std::uint32_t level, std::uint32_t index);
    void tickOnce();

    std::uint64_t jiffy_;
    std::size_t liveCount_ = 0;
    std::size_t fired_ = 0;
    std::uint64_t cascaded_ = 0;

    Slot tv1_[kTv1Size];
    Slot tvn_[kLevels][kTvnSize];

    /** Node slab: chunks of kChunkSize nodes; indices below nodeCount_
     *  have been handed out at least once. */
    std::vector<std::unique_ptr<Node[]>> chunks_;
    std::uint32_t nodeCount_ = 0;
    std::uint32_t freeHead_ = kNil;
    /** Due-batch scratch (capacity reused across ticks; swapped into a
     *  local during use so reentrant advance stays safe). */
    std::vector<TimerId> due_;
};

} // namespace fsim

#endif // FSIM_TIMERWHEEL_TIMER_WHEEL_HH
