/**
 * @file
 * Tests for the trace subsystem: queue-depth recorder decimation, phase
 * attribution arithmetic, the cycle-conservation invariant against the
 * CPU model, and the versioned bench JSON schema.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness/bench_json.hh"
#include "harness/experiment.hh"
#include "trace/phase_accounting.hh"
#include "trace/trace_report.hh"
#include "trace/trace_scope.hh"
#include "trace/tracer.hh"

namespace fsim
{
namespace
{

std::vector<QueueSample>
noteAll(QueueDepthRecorder &rec, std::uint64_t n)
{
    rec.allocate();
    for (std::uint64_t i = 0; i < n; ++i)
        rec.note(TraceQueueId::kAcceptLocal, 1000 + i,
                 static_cast<std::uint32_t>(i));
    return rec.samples();
}

TEST(QueueDepthRecorder, KeepsEveryNoteUpToCapacity)
{
    constexpr std::uint64_t kCap = QueueDepthRecorder::kCapacity;
    QueueDepthRecorder rec;
    std::vector<QueueSample> kept = noteAll(rec, kCap);
    ASSERT_EQ(kept.size(), kCap);
    EXPECT_EQ(rec.stride(), 1u);
    EXPECT_EQ(rec.dropped(), 0u);
    for (std::uint64_t i = 0; i < kCap; ++i) {
        EXPECT_EQ(kept[i].depth, i);
        EXPECT_EQ(kept[i].tick, 1000 + i);
        EXPECT_EQ(kept[i].queue, TraceQueueId::kAcceptLocal);
    }
}

TEST(QueueDepthRecorder, FullBufferHalvesAndDoublesTheStride)
{
    constexpr std::uint64_t kCap = QueueDepthRecorder::kCapacity;
    // One note past capacity: keep every other sample, then the new one.
    QueueDepthRecorder one;
    std::vector<QueueSample> kept = noteAll(one, kCap + 1);
    EXPECT_EQ(one.stride(), 2u);
    ASSERT_EQ(kept.size(), kCap / 2 + 1);
    for (std::size_t k = 0; k < kept.size(); ++k)
        EXPECT_EQ(kept[k].depth, 2 * k);

    // 5000 notes: stride 16 covers them with 313 samples, evenly
    // spaced from the first note to the last multiple of the stride,
    // and the buffer never grows past its first allocation.
    QueueDepthRecorder rec;
    rec.allocate();
    const std::size_t cap_before = rec.samples().capacity();
    kept = noteAll(rec, 5000);
    EXPECT_EQ(rec.samples().capacity(), cap_before);
    EXPECT_EQ(rec.stride(), 16u);
    ASSERT_EQ(kept.size(), 313u);
    for (std::size_t k = 0; k < kept.size(); ++k)
        EXPECT_EQ(kept[k].depth, 16 * k);
    // Conservation: every note is either kept or counted as dropped.
    EXPECT_EQ(rec.noted(), 5000u);
    EXPECT_EQ(kept.size() + rec.dropped(), rec.noted());

    // Deterministic: the same note stream keeps the same samples.
    for (std::uint64_t n : {1u, 511u, 512u, 513u, 1024u, 1025u, 70001u}) {
        QueueDepthRecorder a, b;
        std::vector<QueueSample> ka = noteAll(a, n);
        std::vector<QueueSample> kb = noteAll(b, n);
        ASSERT_EQ(ka.size(), kb.size()) << n;
        EXPECT_LE(ka.size(), kCap) << n;
        EXPECT_EQ(ka.size() + a.dropped(), n) << n;
        for (std::size_t k = 0; k < ka.size(); ++k) {
            EXPECT_EQ(ka[k].tick, kb[k].tick);
            EXPECT_EQ(ka[k].depth, a.stride() * k);
        }
    }
}

TEST(TracerDeath, CoresBeyondTheSpanCoreSetAreFatal)
{
    // A span record's core set is one 64-bit mask.
    EXPECT_DEATH({ Tracer tr(ConnSpanLog::kMaxCores + 1); (void)tr; },
                 "cores exceed");
}

/** Folded map keyed by decoded stack string, for readable asserts. */
std::map<std::string, std::uint64_t>
decodedFolded(const PhaseSnapshot &s)
{
    std::map<std::string, std::uint64_t> out;
    for (const auto &kv : s.folded)
        out[decodeFoldedKey(kv.first)] += kv.second;
    return out;
}

TEST(PhaseAccounting, NestedFramesAndChargesSumToSpan)
{
    PhaseAccounting pa(1);
    pa.push(0, Phase::kApp, 0);
    pa.charge(0, Phase::kLockSpin, 10);
    pa.push(0, Phase::kSyscall, 100);
    pa.charge(0, Phase::kCacheStall, 5);
    pa.pop(0, 150);   // syscall frame: span 50, self 45
    pa.pop(0, 200);   // app frame: span 200, children 10 + 50, self 140
    EXPECT_EQ(pa.depth(0), 0);

    PhaseSnapshot s = pa.snapshot();
    auto &c = s.perCore.at(0);
    EXPECT_EQ(c[static_cast<int>(Phase::kApp)], 140u);
    EXPECT_EQ(c[static_cast<int>(Phase::kSyscall)], 45u);
    EXPECT_EQ(c[static_cast<int>(Phase::kLockSpin)], 10u);
    EXPECT_EQ(c[static_cast<int>(Phase::kCacheStall)], 5u);

    // Attribution is conservative: charges partition the outer span.
    std::uint64_t sum = 0;
    for (int p = 0; p < kNumChargedPhases; ++p)
        sum += c[p];
    EXPECT_EQ(sum, 200u);

    auto folded = decodedFolded(s);
    EXPECT_EQ(folded["app"], 140u);
    EXPECT_EQ(folded["app;lock-spin"], 10u);
    EXPECT_EQ(folded["app;syscall"], 45u);
    EXPECT_EQ(folded["app;syscall;cache-stall"], 5u);
    EXPECT_EQ(s.untracked, 0u);
}

TEST(PhaseAccounting, ChargeOutsideAnyFrameIsUntracked)
{
    PhaseAccounting pa(2);
    pa.charge(1, Phase::kLockSpin, 42);
    PhaseSnapshot s = pa.snapshot();
    EXPECT_EQ(s.untracked, 42u);
    for (const auto &core : s.perCore)
        for (std::uint64_t v : core)
            EXPECT_EQ(v, 0u);
    EXPECT_TRUE(s.folded.empty());
}

TEST(PhaseAccounting, DeltaSubtractsAndSaturates)
{
    PhaseAccounting pa(1);
    pa.push(0, Phase::kApp, 0);
    pa.pop(0, 100);
    PhaseSnapshot before = pa.snapshot();
    pa.push(0, Phase::kApp, 100);
    pa.charge(0, Phase::kLockSpin, 30);
    pa.pop(0, 200);
    PhaseSnapshot d = phaseDelta(before, pa.snapshot());
    EXPECT_EQ(d.perCore[0][static_cast<int>(Phase::kApp)], 70u);
    EXPECT_EQ(d.perCore[0][static_cast<int>(Phase::kLockSpin)], 30u);
    // Window totals: exactly the 100 ticks of the second frame.
    EXPECT_EQ(decodedFolded(d)["app"], 70u);
}

TEST(TraceScope, UnclosedScopeAttributesZeroSelfTime)
{
    Tracer tr(1);
    {
        TraceScope outer(&tr, 0, Phase::kApp, 0);
        {
            TraceScope sc(&tr, 0, Phase::kSyscall, 10);
            tr.chargePhase(0, Phase::kLockSpin, 7);
            // No close(): an early-return path. The destructor pops
            // with zero self time but keeps the nested charge.
        }
        outer.close(100);
    }
    PhaseSnapshot s = tr.phaseSnapshot();
    EXPECT_EQ(s.perCore[0][static_cast<int>(Phase::kSyscall)], 0u);
    EXPECT_EQ(s.perCore[0][static_cast<int>(Phase::kLockSpin)], 7u);
    EXPECT_EQ(s.perCore[0][static_cast<int>(Phase::kApp)], 93u);
    EXPECT_EQ(tr.phases().depth(0), 0);
}

TEST(Tracer, NoteLockSpinEmitsEventPairAndCharges)
{
    // A lock spin is a phase charge only: it records no queue notes.
    Tracer tr(1);
    tr.pushPhase(0, Phase::kSoftirq, 0);
    tr.noteLockSpin(0, 25);
    tr.noteLockSpin(0, 0);   // zero spin: no charge
    tr.popPhase(0, 200);
    EXPECT_EQ(tr.depthNotes(), 0u);

    PhaseSnapshot s = tr.phaseSnapshot();
    EXPECT_EQ(s.perCore[0][static_cast<int>(Phase::kLockSpin)], 25u);
    EXPECT_EQ(s.perCore[0][static_cast<int>(Phase::kSoftirq)], 175u);
    EXPECT_EQ(decodedFolded(s).count("softirq;lock-spin"), 1u);
}

TEST(Tracer, RingsAreAllocatedOnFirstEnable)
{
    // The depth recorders are allocated on the first enable only.
    Tracer tr(2, /*enabled=*/false);
    tr.noteQueueDepth(TraceQueueId::kAcceptShared, 5, 1);
    EXPECT_EQ(tr.numCores(), 2);
    const QueueDepthRecorder &rec =
        tr.queueDepths(TraceQueueId::kAcceptShared);
    EXPECT_EQ(rec.samples().capacity(), 0u);
    EXPECT_EQ(tr.depthNotes(), 0u);
    EXPECT_EQ(tr.depthNotesDropped(), 0u);

    tr.setEnabled(true);
    tr.noteQueueDepth(TraceQueueId::kAcceptShared, 10, 3);
    EXPECT_EQ(rec.samples().capacity(), QueueDepthRecorder::kCapacity);
    ASSERT_EQ(rec.samples().size(), 1u);
    EXPECT_EQ(rec.samples()[0].tick, 10u);
    EXPECT_EQ(rec.samples()[0].depth, 3u);
    EXPECT_EQ(tr.depthNotes(), 1u);

    tr.setEnabled(false);
    tr.setEnabled(true);
    EXPECT_EQ(rec.samples().size(), 1u) << "a disable keeps what was recorded";
    EXPECT_EQ(rec.samples().capacity(), QueueDepthRecorder::kCapacity);
}

TEST(Tracer, DisabledTracerRecordsNothing)
{
    Tracer tr(2);
    tr.setEnabled(false);
    tr.noteQueueDepth(TraceQueueId::kSoftirqBacklog, 10, 4);
    tr.pushPhase(1, Phase::kApp, 0);
    tr.chargePhase(1, Phase::kLockSpin, 5);
    tr.noteLockSpin(1, 9);
    tr.popPhase(1, 100);
    EXPECT_EQ(tr.depthNotes(), 0u);
    for (int q = 0; q < kNumTraceQueues; ++q)
        EXPECT_TRUE(tr.queueDepths(static_cast<TraceQueueId>(q))
                        .samples()
                        .empty());
    PhaseSnapshot s = tr.phaseSnapshot();
    for (const auto &core : s.perCore)
        for (std::uint64_t v : core)
            EXPECT_EQ(v, 0u);
    EXPECT_EQ(s.untracked, 0u);
}

/** Small-but-real experiment config used by the integration tests. */
ExperimentConfig
smallConfig()
{
    ExperimentConfig cfg;
    cfg.machine.cores = 4;
    cfg.concurrencyPerCore = 40;
    cfg.warmupSec = 0.005;
    cfg.measureSec = 0.01;
    return cfg;
}

TEST(PhaseAttribution, ChargedCyclesEqualMeasuredBusyTicks)
{
    // The conservation invariant: every busy cycle the CPU model
    // measures is attributed to exactly one phase, because runNext
    // wraps every task in a root frame and nested charges are contained
    // in their enclosing frame's span.
    Testbed bed(smallConfig());
    bed.run();

    Machine &m = bed.machine();
    PhaseSnapshot s = m.tracer().phaseSnapshot();
    std::uint64_t attributed = 0;
    for (const auto &core : s.perCore)
        for (std::uint64_t v : core)
            attributed += v;
    EXPECT_EQ(attributed, m.cpu().totalBusyTicks());
    for (int c = 0; c < m.tracer().numCores(); ++c)
        EXPECT_EQ(m.tracer().phases().depth(c), 0);
}

TEST(PhaseAttribution, BreakdownFractionsSumToOne)
{
    Testbed bed(smallConfig());
    ExperimentResult r = bed.run();
    ASSERT_EQ(static_cast<int>(r.phases.fractions.size()), 4);
    for (const auto &core : r.phases.fractions) {
        double sum = 0;
        for (double f : core) {
            EXPECT_GE(f, 0.0);
            sum += f;
        }
        EXPECT_NEAR(sum, 1.0, 1e-6);
    }
    // A loaded run attributes real work, not just idle.
    EXPECT_GT(r.phases.total(Phase::kApp), 0.0);
    EXPECT_GT(r.phases.total(Phase::kSyscall), 0.0);
    EXPECT_GT(r.traceEventsRecorded, 0u);
}

TEST(QueueTimelines, AcceptQueueDepthsAreRecovered)
{
    Testbed bed(smallConfig());
    ExperimentResult r = bed.run();
    const Tick to = bed.eventQueue().now();
    const Tick from = to - r.windowSpan;
    // The default kernel funnels everything through the shared queue.
    auto it = r.queueTimelines.find("accept-shared");
    ASSERT_NE(it, r.queueTimelines.end());
    ASSERT_FALSE(it->second.empty());
    for (const auto &kv : r.queueTimelines) {
        EXPECT_LE(kv.second.size(), QueueDepthRecorder::kCapacity)
            << kv.first;
        Tick prev = 0;
        for (const QueueSample &qs : kv.second) {
            EXPECT_GE(qs.tick, prev) << kv.first;
            prev = qs.tick;
            // Only the measurement window is exported.
            EXPECT_GE(qs.tick, from) << kv.first;
            EXPECT_LE(qs.tick, to) << kv.first;
        }
    }
    for (const QueueSample &qs : it->second)
        EXPECT_EQ(qs.queue, TraceQueueId::kAcceptShared);
    // The notes cover the whole run, so decimation is marked.
    EXPECT_GT(r.traceEventsRecorded, 0u);
    EXPECT_LE(r.traceEventsOverwritten, r.traceEventsRecorded);
}

TEST(BenchJson, DocumentCarriesSchemaVersionAndRequiredKeys)
{
    ExperimentConfig cfg = smallConfig();
    cfg.statWindows = 2;
    Testbed bed(cfg);
    ExperimentResult r = bed.run();

    BenchJsonReport report("unit_test");
    report.addRow("row-0", cfg, r);
    EXPECT_EQ(report.rowCount(), 1u);

    std::string doc = report.str();
    // Golden schema: version stamp plus every top-level and per-row key
    // the downstream validator requires.
    EXPECT_NE(doc.find("\"schema_version\":11"), std::string::npos);
    EXPECT_NE(doc.find("\"bench\":\"unit_test\""), std::string::npos);
    for (const char *key :
         {"\"rows\"", "\"label\"", "\"config\"", "\"metrics\"",
          "\"cps\"", "\"phases\"", "\"per_core\"", "\"folded_stacks\"",
          "\"locks\"", "\"lock_windows\"", "\"queue_timelines\"",
          "\"trace\"", "\"events_recorded\"", "\"window_span\"",
          "\"fingerprint\"", "\"invariants\"", "\"checks_run\"",
          "\"violations\"", "\"failed\""})
        EXPECT_NE(doc.find(key), std::string::npos) << key;
    // v2: fingerprints render as fixed-width hex strings.
    EXPECT_NE(doc.find("\"fingerprint\":\"0x"), std::string::npos);
    // v3: per-row faults block (disarmed here) and per-window goodput
    // plus SYN-counter deltas.
    for (const char *key :
         {"\"faults\"", "\"plan\":\"\"", "\"armed\":false",
          "\"syn_cookies\":false", "\"completed\"", "\"goodput\"",
          "\"syn_retransmits\"", "\"syn_cookies_sent\"",
          "\"syn_cookies_validated\"", "\"accept_queue_rsts\""})
        EXPECT_NE(doc.find(key), std::string::npos) << key;
    // v4: per-row overload block (disarmed here, so counters are zero
    // but every key must still be present for the validator).
    for (const char *key :
         {"\"overload\"", "\"enabled\":false", "\"spec\":\"\"",
          "\"offered\"", "\"admitted\"", "\"degraded\"", "\"shed\"",
          "\"shed_deadline\"", "\"shed_worker_cap\"",
          "\"shed_pressure\"", "\"released\"", "\"inflight\"",
          "\"served_degraded\"", "\"backlog_dropped\"",
          "\"syn_gate_dropped\"", "\"pressure_transitions\"",
          "\"pressure_level\"", "\"pressure_peak\"",
          "\"softirq_depth_peak\"", "\"accept_depth_peak\"",
          "\"health_probes_started\"", "\"health_probes_completed\"",
          "\"health_probes_failed\"", "\"latency_p99_ticks\""})
        EXPECT_NE(doc.find(key), std::string::npos) << key;
    // v6: per-row conn block (arena footprint, TIME_WAIT lifecycle,
    // port pressure, ehash lookup cost, ramp checkpoints).
    for (const char *key :
         {"\"conn\"", "\"tcb_live\"", "\"tcb_live_peak\"",
          "\"tcb_created\"", "\"slab_bytes\"", "\"bytes_per_conn\"",
          "\"established_curr\"", "\"established_peak\"",
          "\"time_wait_curr\"", "\"time_wait_peak\"",
          "\"time_wait_entered\"", "\"time_wait_reaped\"",
          "\"time_wait_recycled\"", "\"time_wait_syn_dropped\"",
          "\"time_wait_acks\"", "\"port_alloc_failures\"",
          "\"ehash_lookups\"", "\"ehash_probes_walked\"",
          "\"ehash_lookup_cycles\"", "\"ehash_resizes\"",
          "\"avg_probe_len\"", "\"cycles_per_lookup\"", "\"ramp\""})
        EXPECT_NE(doc.find(key), std::string::npos) << key;
    // v7: per-row sim_core block (DES-core throughput counters; the
    // wall-clock trio only appears on wall-stamped rows, not here).
    for (const char *key :
         {"\"sim_core\"", "\"events_run\"", "\"events_scheduled\"",
          "\"sim_ticks\""})
        EXPECT_NE(doc.find(key), std::string::npos) << key;
    EXPECT_EQ(doc.find("\"wall_seconds\""), std::string::npos);
    // v10: timeseries + fleet_trace blocks are present on every row
    // (disabled and empty on single-machine rows like this one).
    for (const char *key :
         {"\"timeseries\"", "\"sample_period\"", "\"series\"",
          "\"fleet_trace\"", "\"hops\""})
        EXPECT_NE(doc.find(key), std::string::npos) << key;
    // Window deltas: events scheduled during warmup may run inside the
    // window, so run and scheduled need not be ordered — both just have
    // to show the window did real work.
    EXPECT_GT(r.simEventsRun, 0u);
    EXPECT_GT(r.simEventsScheduled, 0u);
    // The short-lived run actively closed connections, so the census
    // must show TIME_WAIT traffic and a non-zero per-conn footprint.
    EXPECT_GT(r.conn.tcbLivePeak, 0u);
    EXPECT_GT(r.conn.bytesPerConn, 0.0);
    EXPECT_GT(r.conn.timeWaitEntered, 0u);
    EXPECT_GT(r.conn.ehashLookups, 0u);
    // statWindows=2 produced two per-window lock-stat deltas.
    EXPECT_EQ(r.lockWindows.size(), 2u);
}

} // namespace
} // namespace fsim
