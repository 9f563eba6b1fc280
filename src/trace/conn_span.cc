#include "trace/conn_span.hh"

#include <algorithm>
#include <bit>
#include <utility>

#include "sim/logging.hh"

namespace fsim
{

const char *
connStageName(ConnStage s)
{
    switch (s) {
      case ConnStage::kSynRx: return "syn-rx";
      case ConnStage::kHandshake: return "handshake";
      case ConnStage::kSoftirqRx: return "softirq-rx";
      case ConnStage::kAcceptQueue: return "accept-queue";
      case ConnStage::kAccept: return "accept";
      case ConnStage::kConnect: return "connect";
      case ConnStage::kDispatch: return "dispatch";
      case ConnStage::kAppRead: return "app-read";
      case ConnStage::kAppProcess: return "app-process";
      case ConnStage::kAppWrite: return "app-write";
      case ConnStage::kTeardown: return "teardown";
      case ConnStage::kVfs: return "vfs";
      case ConnStage::kLockWait: return "lock-wait";
      case ConnStage::kCoreTransfer: return "core-transfer";
    }
    return "?";
}

ConnStageKind
connStageKind(ConnStage s)
{
    switch (s) {
      case ConnStage::kAcceptQueue:
      case ConnStage::kDispatch:
      case ConnStage::kCoreTransfer:
        return ConnStageKind::kWait;
      case ConnStage::kVfs:
      case ConnStage::kLockWait:
        return ConnStageKind::kSub;
      default:
        return ConnStageKind::kExec;
    }
}

Tick
ConnSpanTrace::stageTicks(ConnStage s) const
{
    Tick total = 0;
    for (const ConnSpan &sp : spans)
        if (sp.stage == s)
            total += sp.end - sp.begin;
    return total;
}

Tick
ConnSpanTrace::serviceLatency() const
{
    Tick last_write = 0;
    Tick last_exec = openTick;
    for (const ConnSpan &sp : spans) {
        if (sp.stage == ConnStage::kAppWrite)
            last_write = std::max(last_write, sp.end);
        if (connStageKind(sp.stage) == ConnStageKind::kExec)
            last_exec = std::max(last_exec, sp.end);
    }
    const Tick done = last_write ? last_write : last_exec;
    return done > openTick ? done - openTick : 0;
}

// ---------------------------------------------------------------------
// ConnSpanRecord

int
ConnSpanRecord::rankOf(ConnStage s) const
{
    const std::uint64_t below =
        (std::uint64_t{1} << static_cast<int>(s)) - 1;
    return std::popcount(w_[5] & kStageBits & below);
}

std::uint32_t
ConnSpanRecord::stageCount(ConnStage s) const
{
    if (!((stageMask() >> static_cast<int>(s)) & 1))
        return 0;
    const int r = rankOf(s);
    return static_cast<std::uint32_t>(
        (w_[countsAt() + r / 8] >> (8 * (r % 8))) & 0xff);
}

Tick
ConnSpanRecord::stageTicks(ConnStage s) const
{
    if (!((stageMask() >> static_cast<int>(s)) & 1))
        return 0;
    const int r = rankOf(s);
    const int k = std::popcount(stageMask());
    const std::uint64_t *totals = w_ + countsAt() + (k + 7) / 8;
    if (wide())
        return totals[r];
    return (totals[r / 2] >> (32 * (r % 2))) & 0xffffffffu;
}

Tick
ConnSpanRecord::execTicks() const
{
    Tick exec = 0;
    for (int s = 0; s < kNumConnStages; ++s) {
        const auto st = static_cast<ConnStage>(s);
        if (connStageKind(st) == ConnStageKind::kExec)
            exec += stageTicks(st);
    }
    return exec;
}

std::size_t
ConnSpanRecord::words() const
{
    const std::size_t k = std::popcount(stageMask());
    return countsAt() + (k + 7) / 8 + (wide() ? k : (k + 1) / 2);
}

// ---------------------------------------------------------------------
// SpanRecordArena

SpanRecordArena::~SpanRecordArena()
{
    release();
}

SpanRecordArena::SpanRecordArena(SpanRecordArena &&o) noexcept
    : head_(std::exchange(o.head_, nullptr)),
      tail_(std::exchange(o.tail_, nullptr)),
      records_(std::exchange(o.records_, 0)),
      chunks_(std::exchange(o.chunks_, 0))
{
}

SpanRecordArena &
SpanRecordArena::operator=(SpanRecordArena &&o) noexcept
{
    if (this != &o) {
        release();
        head_ = std::exchange(o.head_, nullptr);
        tail_ = std::exchange(o.tail_, nullptr);
        records_ = std::exchange(o.records_, 0);
        chunks_ = std::exchange(o.chunks_, 0);
    }
    return *this;
}

void
SpanRecordArena::release()
{
    while (head_) {
        Chunk *next = head_->next;
        delete head_;
        head_ = next;
    }
    tail_ = nullptr;
    records_ = 0;
    chunks_ = 0;
}

std::uint64_t *
SpanRecordArena::append(std::size_t words)
{
    fsim_assert(words <= kChunkWords);
    if (!tail_ || tail_->used + words > kChunkWords) {
        // A record never straddles chunks; the tail's leftover words
        // stay unused (at most one maximal record per chunk).
        Chunk *c = new Chunk;
        if (tail_)
            tail_->next = c;
        else
            head_ = c;
        tail_ = c;
        ++chunks_;
    }
    std::uint64_t *out = tail_->words + tail_->used;
    tail_->used += words;
    ++records_;
    return out;
}

SpanRecordArena::Iterator &
SpanRecordArena::Iterator::operator++()
{
    at_ += ConnSpanRecord(chunk_->words + at_).words();
    if (at_ >= chunk_->used) {
        chunk_ = chunk_->next;
        at_ = 0;
    }
    return *this;
}

// ---------------------------------------------------------------------
// ConnSpanLog

ConnSpanLog::LiveConn *
ConnSpanLog::findLive(std::uint64_t conn_id)
{
    if (index_.empty())
        return nullptr;
    const std::size_t mask = index_.size() - 1;
    for (std::size_t i = conn_id & mask;; i = (i + 1) & mask) {
        const Bucket &b = index_[i];
        if (b.slot == kNoSlot)
            return nullptr;
        if (b.id == conn_id)
            return &slab_[b.slot];
    }
}

void
ConnSpanLog::insertLive(std::uint64_t conn_id, std::uint32_t slot)
{
    if (2 * (live_ + 1) > index_.size())
        growIndex();
    const std::size_t mask = index_.size() - 1;
    std::size_t i = conn_id & mask;
    while (index_[i].slot != kNoSlot)
        i = (i + 1) & mask;
    index_[i] = {conn_id, slot};
    ++live_;
}

void
ConnSpanLog::eraseLive(std::uint64_t conn_id)
{
    // Linear probing with backward-shift deletion: no tombstones, so
    // probe chains never lengthen under connection churn.
    const std::size_t mask = index_.size() - 1;
    std::size_t i = conn_id & mask;
    while (index_[i].id != conn_id || index_[i].slot == kNoSlot)
        i = (i + 1) & mask;
    for (std::size_t j = (i + 1) & mask; index_[j].slot != kNoSlot;
         j = (j + 1) & mask) {
        const std::size_t home = index_[j].id & mask;
        // Move j into the hole at i unless its home lies cyclically in
        // (i, j], where it is still reachable without crossing i.
        if (((j - home) & mask) >= ((j - i) & mask)) {
            index_[i] = index_[j];
            i = j;
        }
    }
    index_[i] = Bucket{};
    --live_;
}

void
ConnSpanLog::growIndex()
{
    std::vector<Bucket> old;
    old.swap(index_);
    index_.assign(old.empty() ? 1024 : 2 * old.size(), Bucket{});
    ++allocations_;
    const std::size_t mask = index_.size() - 1;
    for (const Bucket &b : old) {
        if (b.slot == kNoSlot)
            continue;
        std::size_t i = b.id & mask;
        while (index_[i].slot != kNoSlot)
            i = (i + 1) & mask;
        index_[i] = b;
    }
}

std::vector<std::pair<std::uint64_t, std::uint32_t>>
ConnSpanLog::sortedLive() const
{
    std::vector<std::pair<std::uint64_t, std::uint32_t>> ids;
    ids.reserve(live_);
    for (const Bucket &b : index_)
        if (b.slot != kNoSlot)
            ids.emplace_back(b.id, b.slot);
    std::sort(ids.begin(), ids.end());
    return ids;
}

void
ConnSpanLog::encode(const LiveConn &c, Tick close_tick, bool closed,
                    SpanRecordArena &out)
{
    std::uint64_t mask = 0;
    bool wide = false;
    int k = 0;
    for (int s = 0; s < kNumConnStages; ++s) {
        if (!c.counts[s])
            continue;
        mask |= std::uint64_t{1} << s;
        wide |= c.ticks[s] > 0xffffffffu;
        ++k;
    }
    const bool has_trace = c.traceId != 0;
    const std::size_t counts_at =
        ConnSpanRecord::kHeaderWords + (has_trace ? 1 : 0);
    const std::size_t totals_at = counts_at + (k + 7) / 8;
    const std::size_t words =
        totals_at + (wide ? k : (k + 1) / 2);
    std::uint64_t *w = out.append(words);
    std::fill(w, w + words, 0);

    // Service latency: open to the end of the last write, falling back
    // to the last exec span (ConnSpanTrace::serviceLatency).
    const Tick done = c.lastWriteEnd ? c.lastWriteEnd : c.lastExecEnd;
    w[0] = c.connId;
    w[1] = c.openTick;
    w[2] = close_tick;
    w[3] = done > c.openTick ? done - c.openTick : 0;
    w[4] = c.cores;
    w[5] = mask |
           (std::uint64_t{c.passive} << ConnSpanRecord::kPassiveBit) |
           (std::uint64_t{closed} << ConnSpanRecord::kClosedBit) |
           (std::uint64_t{wide} << ConnSpanRecord::kWideBit) |
           (std::uint64_t{has_trace} << ConnSpanRecord::kTraceBit) |
           (std::uint64_t{c.shedReason} << ConnSpanRecord::kShedShift);
    if (has_trace)
        w[6] = c.traceId;
    int r = 0;
    for (int s = 0; s < kNumConnStages; ++s) {
        if (!c.counts[s])
            continue;
        w[counts_at + r / 8] |= std::uint64_t{c.counts[s]}
                                << (8 * (r % 8));
        if (wide)
            w[totals_at + r] = c.ticks[s];
        else
            w[totals_at + r / 2] |= c.ticks[s] << (32 * (r % 2));
        ++r;
    }
}

void
ConnSpanLog::open(std::uint64_t conn_id, Tick t, bool passive)
{
    if (!enabled_)
        return;
    if (tap_)
        tap_->open(conn_id, t, passive);
    ++opened_;
    LiveConn *c = findLive(conn_id);
    if (!c) {
        std::uint32_t slot;
        if (!freeSlots_.empty()) {
            slot = freeSlots_.back();
            freeSlots_.pop_back();
            slab_[slot] = LiveConn{};
        } else {
            if (slab_.size() == slab_.capacity()) {
                // Grow the slab and its free list together, so a later
                // release never allocates.
                const std::size_t cap =
                    std::max<std::size_t>(256, 2 * slab_.capacity());
                slab_.reserve(cap);
                freeSlots_.reserve(cap);
                allocations_ += 2;
            }
            slot = static_cast<std::uint32_t>(slab_.size());
            slab_.emplace_back();
        }
        insertLive(conn_id, slot);
        c = &slab_[slot];
        c->connId = conn_id;
    }
    // Re-opening a live id keeps its spans and takes the new open.
    c->openTick = t;
    c->passive = passive;
}

void
ConnSpanLog::add(std::uint64_t conn_id, ConnStage stage, CoreId core,
                 Tick begin, Tick end, std::uint32_t aux)
{
    if (!enabled_)
        return;
    if (tap_)
        tap_->add(conn_id, stage, core, begin, end, aux);
    LiveConn *c = findLive(conn_id);
    if (!c)
        return; // stray work after teardown (e.g. duplicate packets)
    if (end < begin)
        end = begin;
    const ConnStageKind kind = connStageKind(stage);
    fsim_assert(core < kMaxCores &&
                (core >= 0 || kind != ConnStageKind::kExec));
    if (kind == ConnStageKind::kExec)
        execTicksPerCore_[core] += end - begin;
    if (c->spans >= kMaxSpansPerConn) {
        ++spansDropped_;
        return;
    }
    ++c->spans;
    const int s = static_cast<int>(stage);
    c->ticks[s] += end - begin;
    ++c->counts[s];
    if (kind != ConnStageKind::kWait && core >= 0)
        c->cores |= std::uint64_t{1} << core;
    if (stage == ConnStage::kAppWrite)
        c->lastWriteEnd = std::max(c->lastWriteEnd, end);
    if (kind == ConnStageKind::kExec)
        c->lastExecEnd = std::max(c->lastExecEnd, end);
    ++spansRecorded_;
}

void
ConnSpanLog::setTraceId(std::uint64_t conn_id, std::uint64_t trace_id)
{
    if (!enabled_)
        return;
    if (tap_)
        tap_->setTraceId(conn_id, trace_id);
    if (LiveConn *c = findLive(conn_id))
        c->traceId = trace_id;
}

void
ConnSpanLog::noteShed(std::uint64_t conn_id, std::uint8_t reason)
{
    if (!enabled_)
        return;
    if (tap_)
        tap_->noteShed(conn_id, reason);
    if (LiveConn *c = findLive(conn_id))
        c->shedReason = reason;
}

void
ConnSpanLog::finalize(std::uint32_t slot, Tick t, bool closed)
{
    ++closedTotal_;
    if (completed_.size() < kMaxRetainedTraces) {
        const std::size_t chunks = completed_.chunks();
        encode(slab_[slot], t, closed, completed_);
        allocations_ += completed_.chunks() - chunks;
    } else {
        ++tracesDropped_;
    }
}

void
ConnSpanLog::close(std::uint64_t conn_id, Tick t)
{
    if (!enabled_)
        return;
    if (tap_)
        tap_->close(conn_id, t);
    LiveConn *c = findLive(conn_id);
    if (!c)
        return;
    const auto slot = static_cast<std::uint32_t>(c - slab_.data());
    finalize(slot, t, /*closed=*/true);
    eraseLive(conn_id);
    freeSlots_.push_back(slot);
}

void
ConnSpanLog::closeAllLive(Tick t)
{
    if (!enabled_)
        return;
    if (tap_)
        tap_->closeAllLive(t);
    if (live_ == 0)
        return;
    // closed stays false: no orderly teardown was observed.
    for (const auto &[id, slot] : sortedLive())
        finalize(slot, t, /*closed=*/false);
    slab_.clear();
    freeSlots_.clear();
    std::fill(index_.begin(), index_.end(), Bucket{});
    live_ = 0;
}

SpanRecordArena
ConnSpanLog::liveSnapshot() const
{
    SpanRecordArena out;
    for (const auto &[id, slot] : sortedLive())
        encode(slab_[slot], /*close_tick=*/0, /*closed=*/false, out);
    return out;
}

std::uint64_t
ConnSpanLog::execSelfTicks(CoreId core) const
{
    if (core < 0 || core >= kMaxCores)
        return 0;
    return execTicksPerCore_[core];
}

// ---------------------------------------------------------------------
// ConnSpanRecorder

void
ConnSpanRecorder::open(std::uint64_t conn_id, Tick t, bool passive)
{
    ConnSpanTrace &tr = live_[conn_id];
    tr.connId = conn_id;
    tr.openTick = t;
    tr.passive = passive;
}

void
ConnSpanRecorder::add(std::uint64_t conn_id, ConnStage stage,
                      CoreId core, Tick begin, Tick end,
                      std::uint32_t aux)
{
    auto it = live_.find(conn_id);
    if (it == live_.end() ||
        it->second.spans.size() >= ConnSpanLog::kMaxSpansPerConn)
        return;
    ConnSpan sp;
    sp.begin = begin;
    sp.end = end < begin ? begin : end;
    sp.aux = aux;
    sp.core = static_cast<std::int16_t>(core);
    sp.stage = stage;
    it->second.spans.push_back(sp);
}

void
ConnSpanRecorder::noteShed(std::uint64_t conn_id, std::uint8_t reason)
{
    auto it = live_.find(conn_id);
    if (it != live_.end())
        it->second.shedReason = reason;
}

void
ConnSpanRecorder::setTraceId(std::uint64_t conn_id,
                             std::uint64_t trace_id)
{
    auto it = live_.find(conn_id);
    if (it != live_.end())
        it->second.traceId = trace_id;
}

void
ConnSpanRecorder::retire(ConnSpanTrace &&tr)
{
    if (completed_.size() < ConnSpanLog::kMaxRetainedTraces)
        completed_.push_back(std::move(tr));
}

void
ConnSpanRecorder::close(std::uint64_t conn_id, Tick t)
{
    auto it = live_.find(conn_id);
    if (it == live_.end())
        return;
    it->second.closeTick = t;
    it->second.closed = true;
    retire(std::move(it->second));
    live_.erase(it);
}

void
ConnSpanRecorder::closeAllLive(Tick t)
{
    std::vector<std::uint64_t> ids;
    ids.reserve(live_.size());
    for (const auto &kv : live_)
        ids.push_back(kv.first);
    std::sort(ids.begin(), ids.end());
    for (std::uint64_t id : ids) {
        auto it = live_.find(id);
        it->second.closeTick = t;
        retire(std::move(it->second));
        live_.erase(it);
    }
}

} // namespace fsim
