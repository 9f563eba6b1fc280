/**
 * @file
 * Micro-benchmark of inet_lookup_listener behavior (section 2.1).
 *
 * Two parts:
 *  1. google-benchmark timing of the *real* ListenTable::lookup as the
 *     SO_REUSEPORT clone chain grows — the O(n) walk is a property of
 *     the data structure itself, so real wall-clock numbers apply.
 *  2. A simulated estimate of the walk's share of per-core CPU cycles,
 *     reproducing the paper's 0.26% (1 core) -> 24.2% (24 cores) claim.
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "harness/experiment.hh"

namespace
{

using namespace fsim;

void
BM_ListenerLookup(benchmark::State &state)
{
    int chain = static_cast<int>(state.range(0));
    ListenTable table;
    Rng rng(7);
    std::vector<std::unique_ptr<Socket>> clones;
    for (int i = 0; i < chain; ++i) {
        auto s = std::make_unique<Socket>();
        s->becomeListener(10, 80);
        table.insert(s.get());
        clones.push_back(std::move(s));
    }
    for (auto _ : state) {
        auto l = table.lookup(10, 80, rng);
        benchmark::DoNotOptimize(l.sock);
    }
    state.SetLabel("chain=" + std::to_string(chain));
}

BENCHMARK(BM_ListenerLookup)->Arg(1)->Arg(4)->Arg(8)->Arg(12)->Arg(24);

void
BM_EstablishedLookup(benchmark::State &state)
{
    LockRegistry locks;
    CacheModel cache(1, 400);
    CycleCosts costs;
    EstablishedTable table(16384, locks, cache, costs);
    std::vector<std::unique_ptr<Socket>> socks;
    for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
        auto s = std::make_unique<Socket>();
        s->rxTuple = FiveTuple{1, 2, static_cast<Port>(1024 + i), 80};
        table.insert(0, 0, s.get());
        socks.push_back(std::move(s));
    }
    std::size_t i = 0;
    for (auto _ : state) {
        auto l = table.lookup(0, 0, socks[i % socks.size()]->rxTuple);
        benchmark::DoNotOptimize(l.sock);
        ++i;
    }
}

BENCHMARK(BM_EstablishedLookup)->Arg(1024)->Arg(16384);

} // anonymous namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();

    // Part 2: simulated cycle share of the reuseport chain walk.
    using namespace fsim;
    std::printf("\nSimulated share of per-core cycles spent in the "
                "listener chain walk (Linux 3.13 + SO_REUSEPORT):\n");
    std::printf("paper: 0.26%% at 1 core -> 24.2%% per core at 24 "
                "cores\n");
    for (int cores : {1, 8, 24}) {
        ExperimentConfig cfg;
        cfg.app = AppKind::kNginx;
        cfg.machine.cores = cores;
        cfg.machine.kernel = KernelConfig::linux313();
        cfg.concurrencyPerCore = 150;
        cfg.warmupSec = 0.02;
        cfg.measureSec = 0.05;
        Testbed bed(cfg);
        bed.run();
        const KernelStats &ks = bed.machine().kernel().stats();
        const CycleCosts &costs = bed.machine().costs();
        // Walk cost = per-entry compare + one remote line per clone.
        double walk_cycles =
            static_cast<double>(ks.listenChainWalked) *
            (static_cast<double>(costs.listenLookupPerEntry) +
             (cores > 1 ? costs.cacheMissPenalty : 0));
        double total =
            static_cast<double>(bed.machine().cpu().totalBusyTicks());
        std::printf("  %2d cores: %5.2f%%\n", cores,
                    total > 0 ? 100.0 * walk_cycles / total : 0.0);
    }
    return 0;
}
