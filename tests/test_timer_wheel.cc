/**
 * @file
 * Unit tests for the cascading timer wheel, including a randomized
 * differential test against a reference implementation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "sim/rng.hh"
#include "timerwheel/timer_wheel.hh"

namespace fsim
{
namespace
{

TEST(TimerWheel, FiresAtExpiry)
{
    TimerWheel tw;
    bool fired = false;
    tw.add(10, [&] { fired = true; });
    tw.advance(9);
    EXPECT_FALSE(fired);
    tw.advance(10);
    EXPECT_TRUE(fired);
}

TEST(TimerWheel, FiresInJiffyOrder)
{
    TimerWheel tw;
    std::vector<int> order;
    tw.add(30, [&] { order.push_back(3); });
    tw.add(10, [&] { order.push_back(1); });
    tw.add(20, [&] { order.push_back(2); });
    tw.advance(100);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(TimerWheel, CancelPreventsFiring)
{
    TimerWheel tw;
    bool fired = false;
    auto id = tw.add(10, [&] { fired = true; });
    EXPECT_TRUE(tw.cancel(id));
    EXPECT_FALSE(tw.cancel(id));   // second cancel fails
    tw.advance(100);
    EXPECT_FALSE(fired);
    EXPECT_EQ(tw.pending(), 0u);
}

TEST(TimerWheel, ModifyPostpones)
{
    TimerWheel tw;
    int fires = 0;
    auto id = tw.add(10, [&] { ++fires; });
    EXPECT_TRUE(tw.modify(id, 50));
    tw.advance(40);
    EXPECT_EQ(fires, 0);
    tw.advance(50);
    EXPECT_EQ(fires, 1);
    tw.advance(200);
    EXPECT_EQ(fires, 1) << "stale slot entry must not re-fire";
}

TEST(TimerWheel, ModifyAdvances)
{
    TimerWheel tw;
    int fires = 0;
    auto id = tw.add(500, [&] { ++fires; });
    EXPECT_TRUE(tw.modify(id, 5));
    tw.advance(5);
    EXPECT_EQ(fires, 1);
    tw.advance(1000);
    EXPECT_EQ(fires, 1);
}

TEST(TimerWheel, ModifyAfterFireFails)
{
    TimerWheel tw;
    auto id = tw.add(1, [] {});
    tw.advance(2);
    EXPECT_FALSE(tw.modify(id, 10));
}

TEST(TimerWheel, PastExpiryFiresOnNextTick)
{
    TimerWheel tw;
    tw.advance(100);
    bool fired = false;
    tw.add(50, [&] { fired = true; });   // already in the past
    tw.advance(101);
    EXPECT_TRUE(fired);
}

TEST(TimerWheel, CascadesAcrossLevelBoundary)
{
    TimerWheel tw;
    bool fired = false;
    // 300 > 256 lives in tv2 and must cascade down correctly.
    tw.add(300, [&] { fired = true; });
    tw.advance(299);
    EXPECT_FALSE(fired);
    tw.advance(300);
    EXPECT_TRUE(fired);
}

TEST(TimerWheel, DeepLevels)
{
    TimerWheel tw;
    std::vector<std::uint64_t> fired_at;
    for (std::uint64_t e : {100ull, 20000ull, 2000000ull}) {
        tw.add(e, [&fired_at, &tw] {
            fired_at.push_back(tw.currentJiffy());
        });
    }
    tw.advance(2100000);
    ASSERT_EQ(fired_at.size(), 3u);
    EXPECT_EQ(fired_at[0], 100u);
    EXPECT_EQ(fired_at[1], 20000u);
    EXPECT_EQ(fired_at[2], 2000000u);
}

TEST(TimerWheel, FarFutureClampedNotLost)
{
    TimerWheel tw;
    bool fired = false;
    auto id = tw.add(1ull << 40, [&] { fired = true; });
    EXPECT_EQ(tw.pending(), 1u);
    // The expiry is clamped into the outermost level rather than
    // wrapping; it stays pending, cancellable, and never fires early.
    tw.advance(100000);
    EXPECT_FALSE(fired);
    EXPECT_EQ(tw.pending(), 1u);
    EXPECT_TRUE(tw.cancel(id));
}

TEST(TimerWheel, CallbackCanReArm)
{
    TimerWheel tw;
    int fires = 0;
    std::function<void()> cb = [&] {
        if (++fires < 3)
            tw.add(tw.currentJiffy() + 10, cb);
    };
    tw.add(10, cb);
    tw.advance(100);
    EXPECT_EQ(fires, 3);
}

TEST(TimerWheel, AdvanceReturnsFiredCount)
{
    TimerWheel tw;
    for (int i = 1; i <= 5; ++i)
        tw.add(i, [] {});
    EXPECT_EQ(tw.advance(3), 3u);
    EXPECT_EQ(tw.advance(10), 2u);
}

TEST(TimerWheel, NonZeroStartJiffy)
{
    TimerWheel tw(1000);
    bool fired = false;
    tw.add(1010, [&] { fired = true; });
    tw.advance(1010);
    EXPECT_TRUE(fired);
}

/** A callback capture that counts how often it is copied or moved. */
struct RelocationProbe
{
    static inline int relocations = 0;
    int *fires;

    explicit RelocationProbe(int *f) : fires(f) {}
    RelocationProbe(const RelocationProbe &o) : fires(o.fires)
    {
        ++relocations;
    }
    RelocationProbe(RelocationProbe &&o) noexcept : fires(o.fires)
    {
        ++relocations;
    }
    RelocationProbe &operator=(const RelocationProbe &) = delete;

    void operator()() const { ++*fires; }
};

TEST(TimerWheel, SlabGrowthNeverRelocatesPendingCallbacks)
{
    // A doubling vector moves every pending node when it grows; the
    // chunked slab adds a chunk and leaves live nodes where they are.
    // So every add costs the same number of callback moves (those of
    // the new timer's own handoff), however many timers are pending.
    TimerWheel tw;
    int fires = 0;
    int perAdd = -1;
    for (std::uint32_t i = 0; i < 3 * TimerWheel::kChunkSize + 1; ++i) {
        RelocationProbe probe(&fires);
        RelocationProbe::relocations = 0;
        tw.add(10 + i % 200, probe);
        if (perAdd < 0)
            perAdd = RelocationProbe::relocations;
        ASSERT_EQ(RelocationProbe::relocations, perAdd) << "add " << i;
    }
    tw.advance(1000);
    EXPECT_EQ(fires, static_cast<int>(3 * TimerWheel::kChunkSize + 1));
}

TEST(TimerWheelScale, MillionArmedTimersAllFireOnce)
{
    // bench_million_conn arms one keepalive timer per parked connection:
    // over a million entries spread across every wheel level, cascading
    // down as time passes. Each must fire exactly once, and the cascade
    // machinery must actually engage.
    constexpr std::uint64_t kTimers = 1'200'000;
    constexpr std::uint64_t kHorizon = 600'000;
    TimerWheel tw;
    std::uint64_t fires = 0;
    for (std::uint64_t i = 0; i < kTimers; ++i) {
        // Deterministic spread over the horizon, dense near the start
        // (tv1) and sparse at the deep levels.
        std::uint64_t expiry = 1 + (i * 2654435761u) % kHorizon;
        tw.add(expiry, [&fires] { ++fires; });
    }
    EXPECT_EQ(tw.pending(), kTimers);
    std::uint64_t mid_fired = tw.advance(kHorizon / 2);
    EXPECT_GT(mid_fired, 0u);
    EXPECT_EQ(tw.advance(kHorizon + 1), kTimers - mid_fired);
    EXPECT_EQ(fires, kTimers);
    EXPECT_EQ(tw.pending(), 0u);
    EXPECT_EQ(tw.slotEntries(), 0u);
    EXPECT_GT(tw.cascaded(), 0u)
        << "a 600k-jiffy horizon must exercise the outer levels";
}

TEST(TimerWheelScale, CancelModifyChurnKeepsSlotMemoryBounded)
{
    // Connection teardown cancels its pending timer and every data
    // segment re-arms the idle timer: with eager O(1) removal the slot
    // vectors must track live timers exactly instead of accumulating
    // dead ids until the slot's jiffy comes around.
    TimerWheel tw;
    std::vector<TimerWheel::TimerId> ids;
    for (int round = 0; round < 50; ++round) {
        for (int i = 0; i < 2000; ++i)
            ids.push_back(tw.add(tw.currentJiffy() + 1000 + i, [] {}));
        for (std::size_t i = 0; i < ids.size(); i += 2)
            EXPECT_TRUE(tw.cancel(ids[i]));
        for (std::size_t i = 1; i < ids.size(); i += 2)
            EXPECT_TRUE(tw.modify(ids[i],
                                  tw.currentJiffy() + 5000 + (i % 97)));
        EXPECT_EQ(tw.slotEntries(), tw.pending())
            << "cancel/modify must not leave ghost slot entries";
        tw.advance(tw.currentJiffy() + 10000);
        EXPECT_EQ(tw.pending(), 0u);
        ids.clear();
    }
}

TEST(TimerWheelScale, LongHorizonIndexOverflowIsSafe)
{
    // Slot indexing must stay correct when the jiffy counter crosses
    // 2^32 (a 32-bit index truncation would misfile or lose timers) and
    // far beyond.
    for (std::uint64_t base :
         {(1ull << 32) - 100, (1ull << 40) - 7, (1ull << 52) + 3}) {
        TimerWheel tw(base);
        std::vector<std::uint64_t> fired_at;
        for (std::uint64_t d : {1ull, 200ull, 70'000ull, 9'000'000ull})
            tw.add(base + d, [&fired_at, &tw] {
                fired_at.push_back(tw.currentJiffy());
            });
        tw.advance(base + 9'000'001);
        ASSERT_EQ(fired_at.size(), 4u) << "base=" << base;
        EXPECT_EQ(fired_at[0], base + 1);
        EXPECT_EQ(fired_at[1], base + 200);
        EXPECT_EQ(fired_at[2], base + 70'000);
        EXPECT_EQ(fired_at[3], base + 9'000'000);
        EXPECT_EQ(tw.pending(), 0u);
    }
}

/**
 * Differential property test: random add/cancel/modify sequences must
 * match a trivial map-based reference wheel, for several seeds.
 */
class TimerWheelDifferential : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(TimerWheelDifferential, MatchesReference)
{
    Rng rng(GetParam());
    TimerWheel tw;
    // Reference: expiry per live logical timer.
    std::map<std::uint64_t, std::uint64_t> ref;   // our key -> expiry
    std::map<TimerWheel::TimerId, std::uint64_t> idmap;
    std::vector<std::uint64_t> fired;
    std::uint64_t next_key = 1;
    std::uint64_t now = 0;

    for (int step = 0; step < 2000; ++step) {
        int op = static_cast<int>(rng.range(10));
        if (op < 5) {
            std::uint64_t expires = now + 1 + rng.range(2000);
            std::uint64_t key = next_key++;
            auto id = tw.add(expires, [&fired, key] {
                fired.push_back(key);
            });
            ref[key] = expires;
            idmap[id] = key;
        } else if (op < 7 && !idmap.empty()) {
            auto it = idmap.begin();
            std::advance(it, rng.range(idmap.size()));
            if (tw.cancel(it->first))
                ref.erase(it->second);
            idmap.erase(it);
        } else if (op < 8 && !idmap.empty()) {
            auto it = idmap.begin();
            std::advance(it, rng.range(idmap.size()));
            std::uint64_t expires = now + 1 + rng.range(2000);
            if (tw.modify(it->first, expires))
                ref[it->second] = expires;
        } else {
            std::uint64_t to = now + rng.range(300);
            tw.advance(to);
            now = to;
            // Everything expired by `now` must have fired.
            for (auto it = ref.begin(); it != ref.end();) {
                if (it->second <= now) {
                    EXPECT_NE(std::find(fired.begin(), fired.end(),
                                        it->first),
                              fired.end())
                        << "timer " << it->first << " lost";
                    it = ref.erase(it);
                } else {
                    ++it;
                }
            }
        }
    }
    tw.advance(now + 5000);
    EXPECT_EQ(tw.pending(), 0u);
    // No timer fires twice.
    std::vector<std::uint64_t> sorted = fired;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()),
              sorted.end());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TimerWheelDifferential,
                         ::testing::Values(1, 7, 42, 9001));

} // anonymous namespace
} // namespace fsim
