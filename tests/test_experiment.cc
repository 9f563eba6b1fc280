/**
 * @file
 * Tests for the experiment harness itself: window accounting, lock
 * deltas, metric plumbing.
 */

#include <gtest/gtest.h>

#include "harness/experiment.hh"

namespace fsim
{
namespace
{

TEST(LockDelta, SubtractsPerClass)
{
    std::map<std::string, LockClassStats> before, after;
    before["slock"].acquisitions = 10;
    before["slock"].contentions = 2;
    before["slock"].waitTicks = 100;
    after["slock"].acquisitions = 25;
    after["slock"].contentions = 7;
    after["slock"].waitTicks = 400;
    after["new.lock"].acquisitions = 3;
    // A restarted machine's counters start over below the mark.
    before["ep.lock"].acquisitions = 50;
    before["ep.lock"].holdTicks = 900;
    after["ep.lock"].acquisitions = 20;
    after["ep.lock"].holdTicks = 1000;

    auto d = lockDelta(before, after);
    EXPECT_EQ(d["slock"].acquisitions, 15u);
    EXPECT_EQ(d["slock"].contentions, 5u);
    EXPECT_EQ(d["slock"].waitTicks, 300u);
    EXPECT_EQ(d["new.lock"].acquisitions, 3u);
    // Saturates instead of wrapping.
    EXPECT_EQ(d["ep.lock"].acquisitions, 0u);
    EXPECT_EQ(d["ep.lock"].holdTicks, 100u);
}

TEST(ExperimentResult, UtilHelpers)
{
    ExperimentResult r;
    r.coreUtil = {0.2, 0.8, 0.5};
    EXPECT_DOUBLE_EQ(r.maxUtil(), 0.8);
    EXPECT_DOUBLE_EQ(r.minUtil(), 0.2);
    EXPECT_NEAR(r.avgUtil(), 0.5, 1e-9);
    ExperimentResult empty;
    EXPECT_EQ(empty.maxUtil(), 0.0);
    EXPECT_EQ(empty.avgUtil(), 0.0);
}

TEST(Harness, MeasurementWindowExcludesWarmup)
{
    ExperimentConfig cfg;
    cfg.machine.cores = 2;
    cfg.concurrencyPerCore = 30;
    cfg.warmupSec = 0.01;
    cfg.measureSec = 0.02;
    Testbed bed(cfg);
    ExperimentResult r = bed.run();
    // Served in the window must be below the all-time total.
    EXPECT_LT(r.served, bed.app().served());
    EXPECT_GT(r.served, 0u);
    // cps is per *measured* second.
    double implied = static_cast<double>(r.served) / cfg.measureSec;
    EXPECT_NEAR(r.cps, implied, implied * 0.25);
}

TEST(Harness, DeterministicAcrossRuns)
{
    ExperimentConfig cfg;
    cfg.machine.cores = 2;
    cfg.concurrencyPerCore = 20;
    cfg.warmupSec = 0.005;
    cfg.measureSec = 0.02;
    ExperimentResult a = runExperiment(cfg);
    ExperimentResult b = runExperiment(cfg);
    EXPECT_EQ(a.served, b.served);
    EXPECT_DOUBLE_EQ(a.cps, b.cps);
    EXPECT_DOUBLE_EQ(a.l3MissRate, b.l3MissRate);
}

TEST(Harness, SeedChangesOutcomeSlightly)
{
    ExperimentConfig cfg;
    cfg.machine.cores = 2;
    cfg.concurrencyPerCore = 20;
    cfg.warmupSec = 0.005;
    cfg.measureSec = 0.02;
    ExperimentResult a = runExperiment(cfg);
    cfg.machine.seed = 999;
    ExperimentResult b = runExperiment(cfg);
    // Different random streams; throughput should be in the same band.
    EXPECT_NEAR(a.cps, b.cps, a.cps * 0.3 + 1000);
}

TEST(Harness, LockCycleShareComputed)
{
    ExperimentConfig cfg;
    cfg.machine.cores = 4;
    cfg.concurrencyPerCore = 50;
    cfg.warmupSec = 0.01;
    cfg.measureSec = 0.02;
    ExperimentResult r = runExperiment(cfg);
    double total = 0.0;
    for (const auto &kv : r.lockCycleShare) {
        EXPECT_GE(kv.second, 0.0);
        EXPECT_LE(kv.second, 1.0);
        total += kv.second;
    }
    EXPECT_LE(total, 1.0);
}

TEST(Harness, HaproxyTestbedWiresBackends)
{
    ExperimentConfig cfg;
    cfg.app = AppKind::kHaproxy;
    cfg.machine.cores = 2;
    cfg.concurrencyPerCore = 20;
    cfg.backendCount = 3;
    cfg.warmupSec = 0.005;
    cfg.measureSec = 0.02;
    Testbed bed(cfg);
    ASSERT_NE(bed.backends(), nullptr);
    ExperimentResult r = bed.run();
    EXPECT_GT(r.served, 0u);
    EXPECT_GT(bed.backends()->requestsServed(), 0u);
}

TEST(Harness, NginxTestbedHasNoBackends)
{
    ExperimentConfig cfg;
    cfg.machine.cores = 1;
    cfg.concurrencyPerCore = 5;
    Testbed bed(cfg);
    EXPECT_EQ(bed.backends(), nullptr);
}

TEST(Harness, RxPacketsTracked)
{
    ExperimentConfig cfg;
    cfg.machine.cores = 2;
    cfg.concurrencyPerCore = 20;
    cfg.warmupSec = 0.005;
    cfg.measureSec = 0.02;
    ExperimentResult r = runExperiment(cfg);
    // Each served connection involves several RX packets.
    EXPECT_GT(r.rxPackets, r.served * 3);
}

} // anonymous namespace
} // namespace fsim
