#include "trace/span_forensics.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace fsim
{

namespace
{

/** Index of percentile @p p among @p n ascending values. */
std::size_t
percentileRank(std::size_t n, double p)
{
    const double pos = p * static_cast<double>(n - 1);
    return static_cast<std::size_t>(pos + 0.5);
}

/**
 * Stage percentiles of @p v (non-empty, reordered in place). Each
 * nth_element only searches above the previous rank, so the picks cost
 * about one partition pass instead of a full sort.
 */
void
fillPercentiles(std::vector<Tick> &v, StagePercentiles &sp)
{
    const std::size_t n = v.size();
    Tick *const picks[] = {&sp.p50, &sp.p90, &sp.p99, &sp.p999, &sp.max};
    const double ps[] = {0.50, 0.90, 0.99, 0.999, 1.0};
    auto lo = v.begin();
    for (int i = 0; i < 5; ++i) {
        const auto at = v.begin() +
                        static_cast<std::ptrdiff_t>(percentileRank(n, ps[i]));
        std::nth_element(lo, at, v.end());
        *picks[i] = *at;
        lo = at;
    }
    sp.count = n;
    for (Tick t : v)
        sp.totalTicks += t;
}

ExemplarBreakdown
breakdownOf(ConnSpanRecord rec, const char *percentile)
{
    ExemplarBreakdown ex;
    ex.percentile = percentile;
    ex.connId = rec.connId();
    ex.latency = rec.serviceLatency();
    ex.stageTicks.assign(kNumConnStages, 0);
    ex.stageCounts.assign(kNumConnStages, 0);
    for (int s = 0; s < kNumConnStages; ++s) {
        ex.stageTicks[s] = rec.stageTicks(static_cast<ConnStage>(s));
        ex.stageCounts[s] = rec.stageCount(static_cast<ConnStage>(s));
    }
    for (int c = 0; c < ConnSpanLog::kMaxCores; ++c)
        if ((rec.coreMask() >> c) & 1)
            ex.cores.push_back(c);
    // Attributable time = exec + wait stage totals; sub-stages (lock
    // spin, VFS) live inside exec spans and would double-count.
    Tick covered = 0;
    for (int s = 0; s < kNumConnStages; ++s)
        if (connStageKind(static_cast<ConnStage>(s)) !=
            ConnStageKind::kSub)
            covered += ex.stageTicks[s];
    ex.unattributed = ex.latency > covered ? ex.latency - covered : 0;
    return ex;
}

/** Exemplar ranking entry: the key is stored, never dereferenced. */
struct Ranked
{
    Tick latency;
    std::uint64_t connId;
    std::uint64_t ordinal;  //!< completion order: last-resort tie-break
    const std::uint64_t *record;

    bool
    operator<(const Ranked &o) const
    {
        if (latency != o.latency)
            return latency < o.latency;
        if (connId != o.connId)
            return connId < o.connId;
        return ordinal < o.ordinal;
    }
};

} // namespace

SpanForensics
buildSpanForensics(const ConnSpanLog &log, std::size_t from_idx)
{
    SpanForensics f;
    f.enabled = log.enabled();
    f.live = log.liveCount();
    f.spansRecorded = log.spansRecorded();
    f.spansDropped = log.spansDropped();
    f.tracesDropped = log.tracesDropped();
    if (!f.enabled)
        return f;

    const SpanRecordArena &all = log.completed();
    from_idx = std::min(from_idx, all.size());
    auto first = all.begin();
    for (std::size_t i = 0; i < from_idx; ++i)
        ++first;
    f.completed = all.size() - from_idx;

    // One pass for the counters and the stages any connection saw.
    std::uint16_t seenAny = 0;
    std::size_t passive = 0;
    for (auto it = first; it != all.end(); ++it) {
        const ConnSpanRecord rec = *it;
        if (rec.shedReason() != ConnSpanTrace::kNotShed)
            ++f.shed;
        passive += rec.passive();
        seenAny |= rec.stageMask();
    }

    // Per-stage distributions over the window's completed connections,
    // one reused scratch vector at a time.
    std::vector<Tick> scratch;
    scratch.reserve(f.completed);
    for (int s = 0; s < kNumConnStages; ++s) {
        if (!((seenAny >> s) & 1))
            continue;
        const auto stage = static_cast<ConnStage>(s);
        scratch.clear();
        for (auto it = first; it != all.end(); ++it) {
            const ConnSpanRecord rec = *it;
            if ((rec.stageMask() >> s) & 1)
                scratch.push_back(rec.stageTicks(stage));
        }
        StagePercentiles sp;
        sp.stage = stage;
        fillPercentiles(scratch, sp);
        f.stages.push_back(sp);
    }
    std::vector<Tick>().swap(scratch);

    // Exemplars: rank passive connections (all of them when none are
    // passive) by (latency, connId) so equal latencies pick
    // deterministically.
    std::vector<Ranked> ranked;
    ranked.reserve(passive ? passive : f.completed);
    std::uint64_t ordinal = 0;
    for (auto it = first; it != all.end(); ++it, ++ordinal) {
        const ConnSpanRecord rec = *it;
        if (!passive || rec.passive())
            ranked.push_back({rec.serviceLatency(), rec.connId(), ordinal,
                              rec.data()});
    }
    if (!ranked.empty()) {
        const auto pick = [&](double p) {
            const auto at =
                ranked.begin() +
                static_cast<std::ptrdiff_t>(percentileRank(ranked.size(), p));
            std::nth_element(ranked.begin(), at, ranked.end());
            return ConnSpanRecord(at->record);
        };
        f.exemplars.push_back(breakdownOf(pick(0.50), "p50"));
        f.exemplars.push_back(breakdownOf(pick(0.99), "p99"));
        f.exemplars.push_back(breakdownOf(pick(0.999), "p999"));

        const ExemplarBreakdown &p99 = f.exemplars[1];
        Tick best = 0;
        for (int s = 0; s < kNumConnStages; ++s) {
            if (connStageKind(static_cast<ConnStage>(s)) ==
                ConnStageKind::kSub)
                continue;
            if (p99.stageTicks[s] > best) {
                best = p99.stageTicks[s];
                f.dominantTailStage =
                    connStageName(static_cast<ConnStage>(s));
            }
        }
    }
    return f;
}

std::string
renderSpanForensics(const SpanForensics &f, const std::string &label)
{
    char buf[256];
    std::string out;
    std::snprintf(buf, sizeof(buf), "tail forensics [%s]\n",
                  label.c_str());
    out += buf;
    if (!f.enabled) {
        out += "  span tracing disabled (--notrace); no data\n";
        return out;
    }
    std::snprintf(buf, sizeof(buf),
                  "  completed=%" PRIu64 " live=%" PRIu64 " shed=%" PRIu64
                  " spans=%" PRIu64 " (dropped %" PRIu64
                  " spans, %" PRIu64 " traces)\n",
                  f.completed, f.live, f.shed, f.spansRecorded,
                  f.spansDropped, f.tracesDropped);
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  "  %-14s %9s %9s %9s %9s %9s %9s\n", "stage", "count",
                  "p50", "p90", "p99", "p999", "max");
    out += buf;
    for (const StagePercentiles &sp : f.stages) {
        std::snprintf(buf, sizeof(buf),
                      "  %-14s %9" PRIu64 " %9" PRIu64 " %9" PRIu64
                      " %9" PRIu64 " %9" PRIu64 " %9" PRIu64 "\n",
                      connStageName(sp.stage), sp.count,
                      static_cast<std::uint64_t>(sp.p50),
                      static_cast<std::uint64_t>(sp.p90),
                      static_cast<std::uint64_t>(sp.p99),
                      static_cast<std::uint64_t>(sp.p999),
                      static_cast<std::uint64_t>(sp.max));
        out += buf;
    }
    if (!f.exemplars.empty()) {
        out += "  exemplars (service latency, ticks):\n";
        for (const ExemplarBreakdown &ex : f.exemplars) {
            std::snprintf(buf, sizeof(buf),
                          "    %-4s conn #%" PRIu64 "  latency %" PRIu64
                          "  cores",
                          ex.percentile.c_str(), ex.connId,
                          static_cast<std::uint64_t>(ex.latency));
            out += buf;
            for (int c : ex.cores) {
                std::snprintf(buf, sizeof(buf), " %d", c);
                out += buf;
            }
            out += "\n";
            // Stages sorted by share, largest first, sub-stages last.
            std::vector<int> order;
            for (int s = 0; s < kNumConnStages; ++s)
                if (ex.stageTicks[s] > 0)
                    order.push_back(s);
            std::sort(order.begin(), order.end(), [&](int a, int b) {
                const bool sa = connStageKind(static_cast<ConnStage>(a)) ==
                                ConnStageKind::kSub;
                const bool sb = connStageKind(static_cast<ConnStage>(b)) ==
                                ConnStageKind::kSub;
                if (sa != sb)
                    return sb;
                if (ex.stageTicks[a] != ex.stageTicks[b])
                    return ex.stageTicks[a] > ex.stageTicks[b];
                return a < b;
            });
            for (int s : order) {
                const double share =
                    ex.latency
                        ? 100.0 * static_cast<double>(ex.stageTicks[s]) /
                              static_cast<double>(ex.latency)
                        : 0.0;
                std::snprintf(
                    buf, sizeof(buf),
                    "      %-14s %9" PRIu64 "  %5.1f%%  (x%u)%s\n",
                    connStageName(static_cast<ConnStage>(s)),
                    static_cast<std::uint64_t>(ex.stageTicks[s]), share,
                    ex.stageCounts[s],
                    connStageKind(static_cast<ConnStage>(s)) ==
                            ConnStageKind::kSub
                        ? "  [sub]"
                        : "");
                out += buf;
            }
            if (ex.unattributed > 0) {
                const double share =
                    ex.latency ? 100.0 *
                                     static_cast<double>(ex.unattributed) /
                                     static_cast<double>(ex.latency)
                               : 0.0;
                std::snprintf(buf, sizeof(buf),
                              "      %-14s %9" PRIu64 "  %5.1f%%\n",
                              "(unattributed)",
                              static_cast<std::uint64_t>(ex.unattributed),
                              share);
                out += buf;
            }
        }
        std::snprintf(buf, sizeof(buf), "  dominant tail stage: %s\n",
                      f.dominantTailStage.c_str());
        out += buf;
    }
    return out;
}

} // namespace fsim
