/**
 * @file
 * Unit tests for FlatMap: a differential test against
 * std::unordered_map, and a probe-length regression test.
 *
 * The differential streams cover the cases backward-shift deletion has
 * to get right: clusters that wrap around the end of the table (every
 * key colliding on one home slot, for every home slot of a 16-slot
 * table), erase-heavy churn at a fixed population, and growth steps
 * through many capacities. The regression test drives keys shaped like
 * the load generator's connection key and bounds the mean number of
 * slots a lookup compares, counted through the Eq functor.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/flat_map.hh"
#include "sim/rng.hh"

namespace fsim
{
namespace
{

/** Home-slot override for CollideHash (read by a stateless functor). */
std::uint64_t g_collideHash = 0;

/** Every key hashes to g_collideHash: one long probe cluster. */
struct CollideHash
{
    std::size_t
    operator()(std::uint64_t) const
    {
        return static_cast<std::size_t>(g_collideHash);
    }
};

/** A handful of distinct hashes: several interleaved clusters. */
struct Mod7Hash
{
    std::size_t
    operator()(std::uint64_t k) const
    {
        return static_cast<std::size_t>(k % 7);
    }
};

/** Key comparisons made by lookups (one per slot a probe compares). */
std::uint64_t g_compares = 0;

struct CountingEq
{
    bool
    operator()(std::uint64_t a, std::uint64_t b) const
    {
        ++g_compares;
        return a == b;
    }
};

/** FlatMap and std::unordered_map side by side; every call checks. */
template <typename Map, typename V>
struct Pair
{
    Map flat;
    std::unordered_map<std::uint64_t, V> ref;

    void
    insert(std::uint64_t k, const V &v)
    {
        auto [p, inserted] = flat.insert(k, v);
        auto [it, refInserted] = ref.emplace(k, v);
        ASSERT_EQ(inserted, refInserted) << "key " << k;
        ASSERT_NE(p, nullptr);
        ASSERT_EQ(*p, it->second) << "key " << k;
        ASSERT_EQ(p, flat.find(k));
    }

    void
    erase(std::uint64_t k)
    {
        ASSERT_EQ(flat.erase(k), ref.erase(k) == 1) << "key " << k;
    }

    void
    find(std::uint64_t k)
    {
        const V *p = flat.find(k);
        auto it = ref.find(k);
        ASSERT_EQ(p != nullptr, it != ref.end()) << "key " << k;
        if (p) {
            ASSERT_EQ(*p, it->second) << "key " << k;
        }
    }

    /** Full agreement: size, and every key of the key space, live or
     *  absent. */
    void
    verify(std::uint64_t keySpace)
    {
        ASSERT_EQ(flat.size(), ref.size());
        ASSERT_EQ(flat.empty(), ref.empty());
        for (std::uint64_t k = 0; k < keySpace; ++k)
            find(k);
    }
};

/** Random insert/erase/find over a small key space. */
template <typename Map, typename V, typename MakeV>
void
randomStream(std::uint64_t seed, std::uint64_t keySpace, int ops,
             MakeV makeV)
{
    Pair<Map, V> m;
    Rng rng(seed);
    for (int i = 0; i < ops; ++i) {
        const std::uint64_t k = rng.range(keySpace);
        const std::uint64_t r = rng.range(10);
        if (r < 4)
            m.insert(k, makeV(k, i));
        else if (r < 7)
            m.erase(k);
        else
            m.find(k);
        if (::testing::Test::HasFatalFailure())
            return;
        if (i % 97 == 0)
            m.verify(keySpace);
    }
    m.verify(keySpace);
}

TEST(FlatMap, WrapAroundClustersMatchUnorderedMap)
{
    // Up to 11 keys in a 16-slot table all colliding on one home: for
    // most homes the cluster runs past the last slot and wraps to
    // slot 0, and every erase shifts entries back across the seam.
    // 512 hash values cover every home slot many times over.
    for (std::uint64_t h = 0; h < 512; ++h) {
        g_collideHash = h;
        randomStream<FlatMap<std::uint64_t, std::uint64_t, CollideHash>,
                     std::uint64_t>(h + 1, 11, 400,
                                    [](std::uint64_t k, int i) {
                                        return k * 1000 + i;
                                    });
        ASSERT_FALSE(HasFatalFailure()) << "hash " << h;
    }
}

TEST(FlatMap, RandomStreamsMatchUnorderedMap)
{
    auto val = [](std::uint64_t k, int i) { return k ^ (i * 31ull); };
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        randomStream<FlatMap<std::uint64_t, std::uint64_t>, std::uint64_t>(
            seed, 64, 20'000, val);
        randomStream<FlatMap<std::uint64_t, std::uint64_t, Mod7Hash>,
                     std::uint64_t>(seed, 200, 20'000, val);
        // A non-trivial value type: moves during backward shift and
        // growth must carry the payload, never a moved-from husk.
        randomStream<FlatMap<std::uint64_t, std::string>, std::string>(
            seed, 300, 20'000, [](std::uint64_t k, int i) {
                return std::string(20 + k % 13, 'a' + i % 26);
            });
        ASSERT_FALSE(HasFatalFailure()) << "seed " << seed;
    }
}

TEST(FlatMap, EraseHeavyChurnAtFixedPopulation)
{
    // Hold 3000 live keys while 200K erase+insert pairs cycle through
    // a much larger key space: the table never grows past its first
    // high-water capacity and nothing leaks between clusters.
    Pair<FlatMap<std::uint64_t, std::uint64_t>, std::uint64_t> m;
    Rng rng(11);
    std::vector<std::uint64_t> live;
    constexpr std::uint64_t kSpace = 1u << 20;
    while (live.size() < 3000) {
        const std::uint64_t k = rng.range(kSpace);
        if (m.ref.count(k))
            continue;
        m.insert(k, k + 7);
        live.push_back(k);
    }
    for (int i = 0; i < 200'000; ++i) {
        const std::size_t at = rng.range(live.size());
        m.erase(live[at]);
        std::uint64_t k;
        do {
            k = rng.range(kSpace);
        } while (m.ref.count(k));
        m.insert(k, k + 7);
        live[at] = k;
        if (i % 1000 == 0)
            for (std::uint64_t l : live)
                m.find(l);
        ASSERT_FALSE(HasFatalFailure()) << "op " << i;
    }
    ASSERT_EQ(m.flat.size(), 3000u);
    for (std::uint64_t l : live)
        m.find(l);
}

TEST(FlatMap, GrowthStepsKeepEveryKey)
{
    // Sequential and strided keys through every capacity from 16 to
    // 2^18, with erases interleaved so growth rehashes a table that
    // has had holes shifted closed.
    Pair<FlatMap<std::uint64_t, std::uint64_t>, std::uint64_t> m;
    std::uint64_t next = 0;
    for (std::uint64_t target = 8; target <= (1u << 17); target *= 2) {
        while (m.ref.size() < target) {
            m.insert(next * 4096, next);
            if (next % 3 == 0)
                m.erase((next / 2) * 4096);
            ++next;
        }
        ASSERT_FALSE(HasFatalFailure()) << "target " << target;
        ASSERT_EQ(m.flat.size(), m.ref.size());
        for (const auto &[k, v] : m.ref)
            ASSERT_EQ(*m.flat.find(k), v);
        for (std::uint64_t k = 1; k < 4096; k += 97)
            ASSERT_EQ(m.flat.find(k), nullptr);
    }
}

TEST(FlatMap, LoadGeneratorKeysProbeShort)
{
    // Keys shaped like the load generator's connection key: one server
    // address, 256 client addresses in round robin, each client's ports
    // sequential. 100K keys stay live and the oldest retires as each
    // new one arrives, the way parked keep-alive connections turn
    // over. An identity hash masked to the table size lines these keys
    // up into long clusters; a mixed hash keeps lookups near 2 probes.
    auto key = [](std::uint32_t client, std::uint16_t port) {
        const std::uint32_t server = 0x0a000001;   // 10.0.0.1
        std::uint64_t k =
            (static_cast<std::uint64_t>(server) << 32) ^ client;
        return k * 0x9e3779b97f4a7c15ull ^ (std::uint64_t{80} << 16) ^
               port;
    };
    FlatMap<std::uint64_t, std::uint32_t, std::hash<std::uint64_t>,
            CountingEq>
        m;
    constexpr int kClients = 256;
    constexpr std::size_t kLive = 100'000;
    std::vector<std::uint16_t> nextPort(kClients, 1024);
    std::deque<std::uint64_t> fifo;
    for (std::uint32_t i = 0; i < 600'000; ++i) {
        const std::uint32_t c = i % kClients;
        const std::uint64_t k = key(0xac100001 + c, nextPort[c]++);
        ASSERT_TRUE(m.insert(k, i).second);
        fifo.push_back(k);
        if (fifo.size() > kLive) {
            ASSERT_TRUE(m.erase(fifo.front()));
            fifo.pop_front();
        }
    }
    g_compares = 0;
    for (std::uint64_t k : fifo)
        ASSERT_NE(m.find(k), nullptr);
    const double mean =
        static_cast<double>(g_compares) / static_cast<double>(fifo.size());
    EXPECT_LE(mean, 4.0) << "mean slots compared per lookup";
}

} // namespace
} // namespace fsim
