/**
 * @file
 * The pre-folding connection span log, kept verbatim as a test oracle.
 *
 * This is the ConnSpanLog storage the simulator shipped with through
 * the first fleet-tracing release: one hash-map node and one growing
 * ConnSpan vector per live connection, every completed trace kept
 * whole. Alongside it sit that release's span forensics and the fleet
 * stitcher's server-field update, both reading the raw spans. The
 * differential test (test_conn_span_diff.cc) feeds this log and the
 * folded ConnSpanLog the same span stream and requires identical
 * forensics, stitched fields and counters. Do not "improve" it — its
 * value is that it stays dumb and obviously correct.
 */

#ifndef FSIM_TESTS_REFERENCE_CONN_SPAN_HH
#define FSIM_TESTS_REFERENCE_CONN_SPAN_HH

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "trace/conn_span.hh"
#include "trace/fleet_trace.hh"
#include "trace/span_forensics.hh"

namespace fsim
{

/** Unfolded span log: raw per-connection span vectors. */
class ReferenceConnSpanLog : public ConnSpanTap
{
  public:
    void
    open(std::uint64_t conn_id, Tick t, bool passive) override
    {
        ConnSpanTrace &tr = live_[conn_id];
        tr.connId = conn_id;
        tr.openTick = t;
        tr.passive = passive;
        ++opened_;
    }

    void
    add(std::uint64_t conn_id, ConnStage stage, CoreId core, Tick begin,
        Tick end, std::uint32_t aux) override
    {
        auto it = live_.find(conn_id);
        if (it == live_.end())
            return;
        ConnSpanTrace &tr = it->second;
        if (end < begin)
            end = begin;
        if (connStageKind(stage) == ConnStageKind::kExec) {
            if (execTicksPerCore_.size() <= static_cast<std::size_t>(core))
                execTicksPerCore_.resize(core + 1, 0);
            execTicksPerCore_[core] += end - begin;
        }
        if (tr.spans.size() >= ConnSpanLog::kMaxSpansPerConn) {
            ++spansDropped_;
            return;
        }
        ConnSpan sp;
        sp.begin = begin;
        sp.end = end;
        sp.aux = aux;
        sp.core = static_cast<std::int16_t>(core);
        sp.stage = stage;
        tr.spans.push_back(sp);
        ++spansRecorded_;
    }

    void
    setTraceId(std::uint64_t conn_id, std::uint64_t trace_id) override
    {
        auto it = live_.find(conn_id);
        if (it != live_.end())
            it->second.traceId = trace_id;
    }

    void
    noteShed(std::uint64_t conn_id, std::uint8_t reason) override
    {
        auto it = live_.find(conn_id);
        if (it != live_.end())
            it->second.shedReason = reason;
    }

    void
    close(std::uint64_t conn_id, Tick t) override
    {
        auto it = live_.find(conn_id);
        if (it == live_.end())
            return;
        it->second.closeTick = t;
        it->second.closed = true;
        ++closedTotal_;
        if (completed_.size() < ConnSpanLog::kMaxRetainedTraces)
            completed_.push_back(std::move(it->second));
        else
            ++tracesDropped_;
        live_.erase(it);
    }

    void
    closeAllLive(Tick t) override
    {
        std::vector<std::uint64_t> ids;
        for (const auto &kv : live_)
            ids.push_back(kv.first);
        std::sort(ids.begin(), ids.end());
        for (std::uint64_t id : ids) {
            auto it = live_.find(id);
            it->second.closeTick = t;
            ++closedTotal_;
            if (completed_.size() < ConnSpanLog::kMaxRetainedTraces)
                completed_.push_back(std::move(it->second));
            else
                ++tracesDropped_;
            live_.erase(it);
        }
    }

    std::vector<const ConnSpanTrace *>
    liveSnapshot() const
    {
        std::vector<const ConnSpanTrace *> out;
        for (const auto &kv : live_)
            out.push_back(&kv.second);
        std::sort(out.begin(), out.end(),
                  [](const ConnSpanTrace *a, const ConnSpanTrace *b) {
                      return a->connId < b->connId;
                  });
        return out;
    }

    const std::vector<ConnSpanTrace> &completed() const
    {
        return completed_;
    }
    std::size_t completedCount() const { return completed_.size(); }
    std::size_t liveCount() const { return live_.size(); }
    std::uint64_t opened() const { return opened_; }
    std::uint64_t closedTotal() const { return closedTotal_; }
    std::uint64_t spansRecorded() const { return spansRecorded_; }
    std::uint64_t spansDropped() const { return spansDropped_; }
    std::uint64_t tracesDropped() const { return tracesDropped_; }

    std::uint64_t
    execSelfTicks(CoreId core) const
    {
        if (static_cast<std::size_t>(core) >= execTicksPerCore_.size())
            return 0;
        return execTicksPerCore_[core];
    }

  private:
    std::unordered_map<std::uint64_t, ConnSpanTrace> live_;
    std::vector<ConnSpanTrace> completed_;
    std::vector<std::uint64_t> execTicksPerCore_;
    std::uint64_t opened_ = 0;
    std::uint64_t closedTotal_ = 0;
    std::uint64_t spansRecorded_ = 0;
    std::uint64_t spansDropped_ = 0;
    std::uint64_t tracesDropped_ = 0;
};

namespace reference_detail
{

inline Tick
percentileOf(const std::vector<Tick> &sorted, double p)
{
    if (sorted.empty())
        return 0;
    const double pos = p * static_cast<double>(sorted.size() - 1);
    return sorted[static_cast<std::size_t>(pos + 0.5)];
}

inline ExemplarBreakdown
breakdownOf(const ConnSpanTrace &tr, const char *percentile)
{
    ExemplarBreakdown ex;
    ex.percentile = percentile;
    ex.connId = tr.connId;
    ex.latency = tr.serviceLatency();
    ex.stageTicks.assign(kNumConnStages, 0);
    ex.stageCounts.assign(kNumConnStages, 0);
    for (const ConnSpan &sp : tr.spans) {
        const int idx = static_cast<int>(sp.stage);
        ex.stageTicks[idx] += sp.end - sp.begin;
        ++ex.stageCounts[idx];
        if (connStageKind(sp.stage) != ConnStageKind::kWait &&
            sp.core >= 0 &&
            std::find(ex.cores.begin(), ex.cores.end(),
                      static_cast<int>(sp.core)) == ex.cores.end())
            ex.cores.push_back(sp.core);
    }
    std::sort(ex.cores.begin(), ex.cores.end());
    Tick covered = 0;
    for (int s = 0; s < kNumConnStages; ++s)
        if (connStageKind(static_cast<ConnStage>(s)) !=
            ConnStageKind::kSub)
            covered += ex.stageTicks[s];
    ex.unattributed = ex.latency > covered ? ex.latency - covered : 0;
    return ex;
}

} // namespace reference_detail

/** Forensics over completed traces [from_idx, end), from raw spans. */
inline SpanForensics
referenceSpanForensics(const ReferenceConnSpanLog &log,
                       std::size_t from_idx)
{
    using reference_detail::breakdownOf;
    using reference_detail::percentileOf;
    SpanForensics f;
    f.enabled = true;
    f.live = log.liveCount();
    f.spansRecorded = log.spansRecorded();
    f.spansDropped = log.spansDropped();
    f.tracesDropped = log.tracesDropped();

    const std::vector<ConnSpanTrace> &all = log.completed();
    if (from_idx > all.size())
        from_idx = all.size();
    const std::size_t n = all.size() - from_idx;
    f.completed = n;

    std::vector<std::vector<Tick>> per_stage(kNumConnStages);
    for (std::size_t i = from_idx; i < all.size(); ++i) {
        const ConnSpanTrace &tr = all[i];
        if (tr.shedReason != ConnSpanTrace::kNotShed)
            ++f.shed;
        Tick totals[kNumConnStages] = {};
        bool seen[kNumConnStages] = {};
        for (const ConnSpan &sp : tr.spans) {
            const int idx = static_cast<int>(sp.stage);
            totals[idx] += sp.end - sp.begin;
            seen[idx] = true;
        }
        for (int s = 0; s < kNumConnStages; ++s)
            if (seen[s])
                per_stage[s].push_back(totals[s]);
    }
    for (int s = 0; s < kNumConnStages; ++s) {
        std::vector<Tick> &v = per_stage[s];
        if (v.empty())
            continue;
        std::sort(v.begin(), v.end());
        StagePercentiles sp;
        sp.stage = static_cast<ConnStage>(s);
        sp.count = v.size();
        sp.p50 = percentileOf(v, 0.50);
        sp.p90 = percentileOf(v, 0.90);
        sp.p99 = percentileOf(v, 0.99);
        sp.p999 = percentileOf(v, 0.999);
        sp.max = v.back();
        for (Tick t : v)
            sp.totalTicks += t;
        f.stages.push_back(sp);
    }

    std::vector<std::pair<Tick, const ConnSpanTrace *>> ranked;
    for (std::size_t i = from_idx; i < all.size(); ++i)
        if (all[i].passive)
            ranked.emplace_back(all[i].serviceLatency(), &all[i]);
    if (ranked.empty())
        for (std::size_t i = from_idx; i < all.size(); ++i)
            ranked.emplace_back(all[i].serviceLatency(), &all[i]);
    std::sort(ranked.begin(), ranked.end(),
              [](const auto &a, const auto &b) {
                  if (a.first != b.first)
                      return a.first < b.first;
                  return a.second->connId < b.second->connId;
              });
    if (!ranked.empty()) {
        const auto pick = [&](double p) -> const ConnSpanTrace * {
            const double pos = p * static_cast<double>(ranked.size() - 1);
            return ranked[static_cast<std::size_t>(pos + 0.5)].second;
        };
        f.exemplars.push_back(breakdownOf(*pick(0.50), "p50"));
        f.exemplars.push_back(breakdownOf(*pick(0.99), "p99"));
        f.exemplars.push_back(breakdownOf(*pick(0.999), "p999"));

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

/**
 * The stitcher's server-field update for one machine span, from raw
 * spans. @return true when @p tr was stitched for the first time.
 */
inline bool
referenceStitch(FleetTrace &tr, const ConnSpanTrace &span)
{
    const Tick service = span.serviceLatency();
    bool first = false;
    if (tr.stitched) {
        if (tr.serverOrderly && !span.closed)
            return false;
        if (tr.serverOrderly == span.closed &&
            (service < tr.serverService ||
             (service == tr.serverService &&
              span.openTick >= tr.serverOpen)))
            return false;
    } else {
        first = true;
    }
    tr.stitched = true;
    tr.serverOrderly = span.closed;
    tr.serverOpen = span.openTick;
    tr.serverClose = span.closeTick;
    tr.serverService = service;
    Tick exec = 0;
    for (const ConnSpan &sp : span.spans)
        if (connStageKind(sp.stage) == ConnStageKind::kExec)
            exec += sp.end - sp.begin;
    tr.serverExec = exec;
    return first;
}

} // namespace fsim

#endif // FSIM_TESTS_REFERENCE_CONN_SPAN_HH
