#include "probes.hh"

#include <algorithm>
#include <chrono>
#include <memory>
#include <vector>

#include "cpu/cache_model.hh"
#include "sim/rng.hh"
#include "sync/lock_registry.hh"
#include "sync/spinlock.hh"
#include "tcp/established_table.hh"
#include "tcp/socket.hh"
#include "trace/conn_span.hh"

namespace perfbench
{

namespace
{

using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kMinCalls = 200'000;
constexpr std::uint64_t kMaxCalls = 4'000'000;
/** Pre-drawn random operands, cycled through by the timed loops. */
constexpr std::size_t kOperands = 1u << 16;
/** Timed repetitions per probe; the median is kept. */
constexpr int kReps = 3;

double
nsPerCall(Clock::time_point t0, std::uint64_t calls)
{
    return std::chrono::duration<double, std::nano>(Clock::now() - t0)
               .count() /
           static_cast<double>(calls);
}

/** Calls timed per probe: the run's count, clamped to keep probes short. */
std::uint64_t
probeCalls(std::uint64_t runCalls)
{
    return std::clamp(runCalls, kMinCalls, kMaxCalls);
}

template <typename Fn>
double
medianOfReps(Fn &&once)
{
    double v[kReps];
    for (double &x : v)
        x = once();
    std::sort(v, v + kReps);
    return v[kReps / 2];
}

double
probeCacheAccess(const ProbeSizes &s, fsim::Rng &rng)
{
    fsim::CacheModel cache(s.cores, s.costs.cacheMissPenalty,
                           s.costs.numaNodeSize, s.costs.numaRemotePenalty);
    std::vector<std::uint64_t> objs(s.cacheObjects);
    for (std::uint64_t &o : objs)
        o = cache.newObject();
    std::vector<std::pair<fsim::CoreId, std::uint64_t>> ops(kOperands);
    for (auto &op : ops)
        op = {static_cast<fsim::CoreId>(rng.range(s.cores)),
              objs[rng.range(objs.size())]};
    const std::uint64_t calls = probeCalls(s.cacheCalls);
    return medianOfReps([&] {
        auto t0 = Clock::now();
        for (std::uint64_t i = 0; i < calls; ++i) {
            const auto &op = ops[i & (kOperands - 1)];
            cache.access(op.first, op.second, (i & 1) != 0);
        }
        return nsPerCall(t0, calls);
    });
}

double
probeEhashLookup(const ProbeSizes &s, fsim::Rng &rng)
{
    fsim::LockRegistry locks;
    fsim::CacheModel cache(s.cores, s.costs.cacheMissPenalty,
                           s.costs.numaNodeSize, s.costs.numaRemotePenalty);
    fsim::EstablishedTable table(s.ehashBuckets, locks, cache, s.costs,
                                 "ehash.lock", s.ehashResizable);
    const std::uint64_t pop = std::max<std::uint64_t>(s.ehashPopulation, 1);
    // Intrusive chains point into the sockets: size the storage once.
    std::vector<std::unique_ptr<fsim::Socket>> socks(pop);
    fsim::Tick t = 0;
    for (std::uint64_t i = 0; i < pop; ++i) {
        socks[i] = std::make_unique<fsim::Socket>();
        fsim::Socket &sk = *socks[i];
        sk.id = i + 1;
        sk.rxTuple = fsim::FiveTuple{
            static_cast<fsim::IpAddr>(0xac100001u + (i >> 14)),
            0x0a000001u, static_cast<fsim::Port>(1024 + (i & 0x3fff)), 80};
        t = table.insert(0, t, &sk);
    }
    std::vector<fsim::FiveTuple> keys(kOperands);
    for (fsim::FiveTuple &k : keys)
        k = socks[rng.range(pop)]->rxTuple;
    const std::uint64_t calls = probeCalls(s.ehashCalls);
    return medianOfReps([&] {
        auto t0 = Clock::now();
        for (std::uint64_t i = 0; i < calls; ++i)
            table.lookup(0, t, keys[i & (kOperands - 1)]);
        return nsPerCall(t0, calls);
    });
}

double
probeRunLocked(const ProbeSizes &s, fsim::Rng &rng)
{
    fsim::LockRegistry locks;
    fsim::CacheModel cache(s.cores, s.costs.cacheMissPenalty,
                           s.costs.numaNodeSize, s.costs.numaRemotePenalty);
    fsim::SimSpinLock lock;
    lock.init(locks.getClass("probe.lock"), &cache, s.costs.lockAcquireBase,
              s.costs.lockHandoffStorm);
    std::vector<std::pair<fsim::CoreId, fsim::Tick>> ops(kOperands);
    for (auto &op : ops)
        op = {static_cast<fsim::CoreId>(rng.range(s.cores)),
              static_cast<fsim::Tick>(rng.range(400))};
    const std::uint64_t calls = probeCalls(s.lockCalls);
    fsim::Tick t = 0;
    return medianOfReps([&] {
        auto t0 = Clock::now();
        for (std::uint64_t i = 0; i < calls; ++i) {
            const auto &op = ops[i & (kOperands - 1)];
            t = lock.runLocked(op.first, t + op.second, 100);
        }
        return nsPerCall(t0, calls);
    });
}

double
probeSpanAdd(const ProbeSizes &s)
{
    // Traces are opened, filled round-robin (as concurrent connections
    // interleave) and closed in batches; only the adds are timed.
    const std::uint64_t conns = 4096;
    const std::uint64_t perConn = std::max<std::uint64_t>(s.spansPerConn, 1);
    const std::uint64_t calls = probeCalls(s.spanCalls);
    return medianOfReps([&] {
        double addNs = 0.0;
        std::uint64_t done = 0;
        std::uint64_t next = 1;
        while (done < calls) {
            fsim::ConnSpanLog log;
            const std::uint64_t first = next;
            for (std::uint64_t c = 0; c < conns; ++c)
                log.open(next++, 0, true);
            const std::uint64_t batch = conns * perConn;
            auto t0 = Clock::now();
            for (std::uint64_t k = 0; k < perConn; ++k)
                for (std::uint64_t c = 0; c < conns; ++c)
                    log.add(first + c, fsim::ConnStage::kSoftirqRx,
                            static_cast<fsim::CoreId>(c % s.cores),
                            static_cast<fsim::Tick>(k * 10),
                            static_cast<fsim::Tick>(k * 10 + 5));
            addNs += nsPerCall(t0, batch) * static_cast<double>(batch);
            done += batch;
            for (std::uint64_t c = 0; c < conns; ++c)
                log.close(first + c, 1000);
        }
        return addNs / static_cast<double>(done);
    });
}

} // namespace

ProbeResult
runProbes(const ProbeSizes &sizes, std::uint64_t seed)
{
    fsim::Rng rng(seed ^ 0x9b0be5);
    ProbeResult r;
    r.cacheAccessNs = probeCacheAccess(sizes, rng);
    r.ehashLookupNs = probeEhashLookup(sizes, rng);
    r.runLockedNs = probeRunLocked(sizes, rng);
    r.spanAddNs = probeSpanAdd(sizes);
    return r;
}

} // namespace perfbench
