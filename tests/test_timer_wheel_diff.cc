/**
 * @file
 * Differential property test: the intrusive-list TimerWheel vs the
 * frozen vector-slot ReferenceTimerWheel.
 *
 * Randomized add / cancel / modify / advance streams (seeded by
 * sim/rng so failures replay exactly) drive both wheels in lockstep.
 * Expiries span all five levels, past expiries and clamped far-future
 * ones; runs start just below a multiple of 2^20, 2^26 or 2^32 jiffies
 * so tv4 and tv5 cascade within a few thousand jiffies too. Timers are
 * armed in same-expiry groups, and their callbacks cancel or re-arm
 * other members of their own due batch and arm new timers. After every
 * operation both wheels must agree on the firing sequence, the handles
 * (TimerId values) they return, pending(), cascaded() and
 * currentJiffy(), and slotEntries() must equal pending(). Handles are
 * kept after their timer fires or is cancelled, so cancel() and
 * modify() also replay stale handles whose slab slot was reused. The
 * chunked slab must hold exactly the reference's high-water node count
 * rounded up to one chunk.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "reference_timer_wheel.hh"
#include "sim/rng.hh"
#include "timerwheel/timer_wheel.hh"

namespace fsim
{
namespace
{

/** Drives one wheel; every timer is named by a tag (its arm ordinal). */
template <typename Wheel>
struct Side
{
    explicit Side(std::uint64_t start, std::uint64_t seed)
        : wheel(start), cbRng(seed)
    {
    }

    Wheel wheel;
    /** Decisions made inside callbacks; both sides draw identically
     *  as long as both wheels fire identically. */
    Rng cbRng;
    std::vector<typename Wheel::TimerId> ids;   // by tag
    std::vector<std::uint64_t> expires;         // by tag, last armed
    std::vector<std::uint64_t> log;             // fired tags, in order
    std::vector<typename Wheel::TimerId> handles;   // every add() result

    void
    arm(std::uint64_t exp)
    {
        const std::uint64_t tag = ids.size();
        ids.push_back(0);
        expires.push_back(exp);
        ids[tag] = wheel.add(exp, [this, tag] { onFire(tag); });
        handles.push_back(ids[tag]);
    }

    void
    onFire(std::uint64_t tag)
    {
        log.push_back(tag);
        const std::uint64_t now = wheel.currentJiffy();
        // Batch mates were armed in one group with one expiry, so they
        // sit within a few tags of each other.
        for (std::uint64_t d = 1; d <= 6; ++d) {
            for (std::uint64_t mate : {tag + d, tag - d}) {
                if (mate >= ids.size() || expires[mate] != expires[tag])
                    continue;
                switch (cbRng.range(4)) {
                  case 0:
                    wheel.cancel(ids[mate]);
                    break;
                  case 1: {
                    // Future only: a batch mate re-armed into the past
                    // would fire in this same batch.
                    const std::uint64_t e = now + 1 + cbRng.range(600);
                    if (wheel.modify(ids[mate], e))
                        expires[mate] = e;
                    break;
                  }
                  default:
                    break;
                }
            }
        }
        if (cbRng.range(8) == 0)
            arm(now + cbRng.range(300));
    }
};

class TimerWheelDiff
    : public ::testing::TestWithParam<std::pair<std::uint64_t,
                                                std::uint64_t>>
{
};

/** One expiry relative to @p now, drawn across every wheel level. */
std::uint64_t
drawExpiry(Rng &rng, std::uint64_t now)
{
    switch (rng.range(8)) {
      case 0:
        return now > 5 ? now - rng.range(5) : now;   // past or now
      case 1:
      case 2:
        return now + 1 + rng.range(255);                       // tv1
      case 3:
        return now + 256 + rng.range((1ull << 14) - 256);      // tv2
      case 4:
        return now + (1ull << 14) + rng.range(1ull << 20);     // tv3
      case 5:
        return now + (1ull << 20) + rng.range(1ull << 26);     // tv4
      case 6:
        return now + (1ull << 26) + rng.range(1ull << 32);     // tv5
      default:
        return now + (1ull << 32) + rng.range(1ull << 40);   // clamped
    }
}

TEST_P(TimerWheelDiff, MatchesReference)
{
    const auto [start, seed] = GetParam();
    Side<ReferenceTimerWheel> ref(start, seed);
    Side<TimerWheel> cut(start, seed);
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);

    constexpr int kOps = 60'000;
    std::size_t checkedLog = 0;
    std::size_t checkedHandles = 0;
    for (int op = 0; op < kOps; ++op) {
        const std::uint64_t now = ref.wheel.currentJiffy();
        const std::uint64_t r = rng.range(100);
        if (r < 35) {
            const std::uint64_t exp = drawExpiry(rng, now);
            const std::uint64_t group = 1 + rng.range(6);
            for (std::uint64_t g = 0; g < group; ++g) {
                ref.arm(exp);
                cut.arm(exp);
            }
        } else if (r < 55 && !ref.ids.empty()) {
            const std::uint64_t tag = rng.range(ref.ids.size());
            const std::uint64_t exp = drawExpiry(rng, now);
            const bool a = ref.wheel.modify(ref.ids[tag], exp);
            const bool b = cut.wheel.modify(cut.ids[tag], exp);
            ASSERT_EQ(a, b) << "modify, op " << op << " seed " << seed;
            if (a) {
                ref.expires[tag] = exp;
                cut.expires[tag] = exp;
            }
        } else if (r < 70 && !ref.ids.empty()) {
            const std::uint64_t tag = rng.range(ref.ids.size());
            ASSERT_EQ(ref.wheel.cancel(ref.ids[tag]),
                      cut.wheel.cancel(cut.ids[tag]))
                << "cancel, op " << op << " seed " << seed;
        } else {
            const std::uint64_t step = rng.range(100) == 0
                                           ? 1 + rng.range(20'000)
                                           : 1 + rng.range(64);
            ASSERT_EQ(ref.wheel.advance(now + step),
                      cut.wheel.advance(now + step))
                << "advance, op " << op << " seed " << seed;
        }
        ASSERT_EQ(ref.log.size(), cut.log.size())
            << "op " << op << " seed " << seed;
        for (; checkedLog < ref.log.size(); ++checkedLog)
            ASSERT_EQ(ref.log[checkedLog], cut.log[checkedLog])
                << "firing " << checkedLog << ", op " << op << " seed "
                << seed;
        ASSERT_EQ(ref.handles.size(), cut.handles.size());
        for (; checkedHandles < ref.handles.size(); ++checkedHandles)
            ASSERT_EQ(ref.handles[checkedHandles],
                      cut.handles[checkedHandles])
                << "op " << op << " seed " << seed;
        ASSERT_EQ(ref.wheel.pending(), cut.wheel.pending());
        ASSERT_EQ(ref.wheel.cascaded(), cut.wheel.cascaded())
            << "op " << op << " seed " << seed;
        ASSERT_EQ(ref.wheel.currentJiffy(), cut.wheel.currentJiffy());
        ASSERT_EQ(cut.wheel.slotEntries(), cut.wheel.pending())
            << "op " << op << " seed " << seed;
    }
    // Every live tag's handle still names the same slab slot and
    // generation in both wheels.
    ASSERT_EQ(ref.ids, cut.ids);
    const std::size_t chunk = TimerWheel::kChunkSize;
    EXPECT_EQ(cut.wheel.slabCapacity(),
              (ref.wheel.slabCapacity() + chunk - 1) / chunk * chunk);
    // The streams must have exercised what they claim to.
    EXPECT_GT(cut.log.size(), 10'000u);
    EXPECT_GT(cut.wheel.cascaded(), 1'000u);
    EXPECT_GT(cut.wheel.slabCapacity(), 4 * chunk)
        << "handles must span several slab chunks";
}

INSTANTIATE_TEST_SUITE_P(
    Starts, TimerWheelDiff,
    ::testing::Values(
        std::make_pair(std::uint64_t{0}, std::uint64_t{1}),
        std::make_pair((1ull << 20) - 3000, std::uint64_t{2}),   // tv4
        std::make_pair((1ull << 26) - 3000, std::uint64_t{3}),   // tv5
        std::make_pair((1ull << 32) - 3000, std::uint64_t{4}),   // all
        std::make_pair((5ull << 26) - 70'000, std::uint64_t{5})));

} // namespace
} // namespace fsim
