/**
 * @file
 * Per-connection lifecycle span log: the simulator's answer to "where did
 * THIS connection lose its time?".
 *
 * Every connection TCB minted by the kernel opens a trace; hook
 * points across the stack (SoftIRQ SYN/handshake processing, accept-queue
 * sojourn, accept/connect/read/write/close syscalls, VFS allocation,
 * epoll dispatch, lock spins, RFD cross-core transfers) append timestamped
 * stage spans with the executing core. Aggregate phase accounting
 * (PhaseAccounting) answers "where did the machine's cycles go"; this log
 * answers the per-request question the paper's tail analysis needs.
 *
 * Stages come in three kinds:
 *  - exec:  cycles a core actually spent on this connection. Per core,
 *    exec spans never overlap (cores execute serially in virtual time),
 *    so their per-core sum must reconcile with CpuModel busy ticks
 *    (sum <= busy; the cross-check test pins it).
 *  - wait:  elapsed time with no core charged (accept-queue sojourn,
 *    epoll-wake-to-read dispatch delay, SoftIRQ backlog residency after a
 *    software steer). Waits explain tails; they are excluded from the
 *    exec reconciliation.
 *  - sub:   a sub-interval of an enclosing exec span (lock spin, VFS
 *    allocation) broken out for attribution. Also excluded from the
 *    reconciliation sum, since the parent already covers the cycles.
 *
 * The log folds spans as they arrive: a connection costs one fixed
 * live accumulator and, once closed, one compact record (ConnSpanRecord,
 * about 112 B for a short nginx connection). Raw ConnSpan vectors are
 * kept only by an attached ConnSpanRecorder (--perfetto).
 *
 * Determinism: completed records are kept in completion order (a pure
 * function of simulated events), never in pointer or hash order, so any
 * report derived from the log is bit-stable for a given seed + config.
 * Recording never charges virtual cycles and never touches simulated
 * state, so results are identical with tracing on or off.
 */

#ifndef FSIM_TRACE_CONN_SPAN_HH
#define FSIM_TRACE_CONN_SPAN_HH

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace fsim
{

/** Connection lifecycle stage a span is attributed to. */
enum class ConnStage : std::uint8_t
{
    kSynRx = 0,      //!< SoftIRQ: SYN processing (TCB mint + SYN-ACK)
    kHandshake,      //!< SoftIRQ: final ACK / cookie ACK establishes
    kSoftirqRx,      //!< SoftIRQ: any other packet on this connection
    kAcceptQueue,    //!< wait: enqueue-to-dequeue accept-queue sojourn
    kAccept,         //!< accept() syscall servicing this connection
    kConnect,        //!< connect() syscall creating an active connection
    kDispatch,       //!< wait: epoll wakeup to the app's read() syscall
    kAppRead,        //!< read() syscall
    kAppProcess,     //!< application service work between read and write
    kAppWrite,       //!< write() syscall
    kTeardown,       //!< close() syscall + FIN-path work
    kVfs,            //!< sub: VFS socket-file alloc/free inside a syscall
    kLockWait,       //!< sub: lock spin inside an enclosing stage
    kCoreTransfer,   //!< wait: cross-core handoff (RFD software steer)
};

/** Total number of connection stages. */
constexpr int kNumConnStages =
    static_cast<int>(ConnStage::kCoreTransfer) + 1;

/** How a stage's time relates to core busy cycles (see file header). */
enum class ConnStageKind : std::uint8_t
{
    kExec = 0,
    kWait,
    kSub,
};

/** Stable lowercase stage name ("syn-rx", "accept-queue", ...). */
const char *connStageName(ConnStage s);

ConnStageKind connStageKind(ConnStage s);

/** One timestamped stage interval of one connection. */
struct ConnSpan
{
    Tick begin = 0;
    Tick end = 0;
    /** Stage-specific payload: peer core for kCoreTransfer, lock-class
     *  trace id for kLockWait, VFS mode for kVfs, 0 otherwise. */
    std::uint32_t aux = 0;
    /** Core that executed (exec/sub) or hosts the waiting queue (wait). */
    std::int16_t core = -1;
    ConnStage stage = ConnStage::kSynRx;
};

/** The full recorded lifecycle of one connection. */
struct ConnSpanTrace
{
    /** "Not shed by admission control" sentinel for shedReason. */
    static constexpr std::uint8_t kNotShed = 0xff;

    std::uint64_t connId = 0;
    /** End-to-end distributed trace context (Packet::traceId) this
     *  connection belongs to; 0 when the client did not mint one
     *  (probes, backend-side connections). The fleet stitcher joins
     *  machine-side traces to LB/client records on this key. */
    std::uint64_t traceId = 0;
    Tick openTick = 0;     //!< first kernel touch (SYN rx / connect)
    Tick closeTick = 0;    //!< TCB destruction
    bool passive = true;
    bool closed = false;
    /** ShedReason value when admission control shed this connection. */
    std::uint8_t shedReason = kNotShed;
    std::vector<ConnSpan> spans;

    /** Sum of span durations recorded for @p s. */
    Tick stageTicks(ConnStage s) const;

    /**
     * Service latency: open until the last response byte was written
     * (end of the last kAppWrite span), falling back to the last exec
     * span for connections that never produced a response. This is the
     * server-side analogue of the client-observed latency, minus wire
     * delay, and the ranking key for tail exemplars.
     */
    Tick serviceLatency() const;
};

/**
 * Observer of the raw span stream: every mutator call an enabled
 * ConnSpanLog accepts is forwarded verbatim, before the log folds it.
 * The Perfetto exporter's ConnSpanRecorder and the differential tests
 * attach here; a log without a tap pays one predicted branch per call.
 */
class ConnSpanTap
{
  public:
    virtual ~ConnSpanTap() = default;
    virtual void open(std::uint64_t conn_id, Tick t, bool passive) = 0;
    virtual void add(std::uint64_t conn_id, ConnStage stage, CoreId core,
                     Tick begin, Tick end, std::uint32_t aux) = 0;
    virtual void noteShed(std::uint64_t conn_id, std::uint8_t reason) = 0;
    virtual void setTraceId(std::uint64_t conn_id,
                            std::uint64_t trace_id) = 0;
    virtual void close(std::uint64_t conn_id, Tick t) = 0;
    virtual void closeAllLive(Tick t) = 0;
};

/**
 * Read-only view of one folded connection record: a fixed header plus
 * the span totals and counts of the stages the connection actually
 * saw. Word layout (64-bit words, see conn_span.cc for the writer):
 *
 *   [0] connId  [1] openTick  [2] closeTick  [3] service latency
 *   [4] core mask (bit c: an exec/sub span ran on core c)
 *   [5] meta: stage mask (bits 0-13), passive (16), closed (17),
 *       wide totals (18), has trace id (19), shed reason (24-31)
 *   [6] traceId, only when the has-trace bit is set
 *   then one count byte per seen stage, eight to a word, then one
 *   total per seen stage: 32-bit, two to a word, unless the wide bit
 *   says some total needed 64 bits.
 *
 * Seen stages appear in ConnStage order. Every field is exact: folding
 * only sums, counts and takes maxima of what the raw spans held.
 */
class ConnSpanRecord
{
  public:
    explicit ConnSpanRecord(const std::uint64_t *words) : w_(words) {}

    std::uint64_t connId() const { return w_[0]; }
    Tick openTick() const { return w_[1]; }
    /** TCB destruction (or crash finalization); 0 while live. */
    Tick closeTick() const { return w_[2]; }
    /** ConnSpanTrace::serviceLatency() of the raw spans. */
    Tick serviceLatency() const { return w_[3]; }
    /** Bit c set when an exec or sub span ran on core c. */
    std::uint64_t coreMask() const { return w_[4]; }
    /** Bit s set when stage s recorded at least one span. */
    std::uint16_t stageMask() const
    {
        return static_cast<std::uint16_t>(w_[5] & kStageBits);
    }
    bool passive() const { return (w_[5] >> kPassiveBit) & 1; }
    /** Orderly TCB destruction (false: crash-finalized or live). */
    bool closed() const { return (w_[5] >> kClosedBit) & 1; }
    std::uint8_t shedReason() const
    {
        return static_cast<std::uint8_t>(w_[5] >> kShedShift);
    }
    std::uint64_t traceId() const { return hasTrace() ? w_[6] : 0; }

    /** Summed duration of the stage's spans. */
    Tick stageTicks(ConnStage s) const;
    /** Number of spans recorded for the stage. */
    std::uint32_t stageCount(ConnStage s) const;
    /** Summed duration of the exec-kind stages. */
    Tick execTicks() const;

    /** Encoded length of this record. */
    std::size_t words() const;
    /** First word of the encoding (stable for the arena's lifetime). */
    const std::uint64_t *data() const { return w_; }

    /** @name Layout (shared with the encoder) */
    /** @{ */
    static constexpr std::size_t kHeaderWords = 6;
    /** Largest encoding: trace id, all counts, all totals wide. */
    static constexpr std::size_t kMaxWords =
        kHeaderWords + 1 + (kNumConnStages + 7) / 8 + kNumConnStages;
    static constexpr std::uint64_t kStageBits =
        (std::uint64_t{1} << kNumConnStages) - 1;
    static constexpr int kPassiveBit = 16;
    static constexpr int kClosedBit = 17;
    static constexpr int kWideBit = 18;
    static constexpr int kTraceBit = 19;
    static constexpr int kShedShift = 24;
    static_assert(kNumConnStages <= kPassiveBit,
                  "the stage mask shares the meta word with flags");
    /** @} */

  private:
    bool hasTrace() const { return (w_[5] >> kTraceBit) & 1; }
    bool wide() const { return (w_[5] >> kWideBit) & 1; }
    std::size_t countsAt() const { return kHeaderWords + hasTrace(); }
    /** Rank of stage @p s among the seen stages. */
    int rankOf(ConnStage s) const;

    const std::uint64_t *w_;
};

/**
 * Append-only store of folded connection records, in fixed 64 KiB
 * chunks linked in order. Growth allocates one chunk at a time and
 * never moves a record, so record views stay valid for the arena's
 * lifetime and there is no doubling spike. Move-only.
 */
class SpanRecordArena
{
    struct Chunk;

  public:
    /** Words per chunk: with the two-word link header, a chunk is
     *  exactly 64 KiB. */
    static constexpr std::size_t kChunkWords = 8190;

    SpanRecordArena() = default;
    ~SpanRecordArena();
    SpanRecordArena(SpanRecordArena &&o) noexcept;
    SpanRecordArena &operator=(SpanRecordArena &&o) noexcept;
    SpanRecordArena(const SpanRecordArena &) = delete;
    SpanRecordArena &operator=(const SpanRecordArena &) = delete;

    /** Room for one record of @p words words, counted as appended. */
    std::uint64_t *append(std::size_t words);

    std::size_t size() const { return records_; }
    /** Chunks allocated (each one heap allocation). */
    std::size_t chunks() const { return chunks_; }

    /** Forward iterator over the records in append order. */
    class Iterator
    {
      public:
        ConnSpanRecord operator*() const
        {
            return ConnSpanRecord(chunk_->words + at_);
        }
        Iterator &operator++();
        bool operator==(const Iterator &o) const
        {
            return chunk_ == o.chunk_ && at_ == o.at_;
        }
        bool operator!=(const Iterator &o) const { return !(*this == o); }

      private:
        friend class SpanRecordArena;
        Iterator(const Chunk *chunk, std::size_t at)
            : chunk_(chunk), at_(at)
        {
        }
        const Chunk *chunk_;
        std::size_t at_;
    };

    Iterator begin() const { return Iterator(head_, 0); }
    Iterator end() const { return Iterator(nullptr, 0); }

  private:
    struct Chunk
    {
        Chunk *next = nullptr;
        std::size_t used = 0;
        std::uint64_t words[kChunkWords];
    };

    void release();

    Chunk *head_ = nullptr;
    Chunk *tail_ = nullptr;
    std::size_t records_ = 0;
    std::size_t chunks_ = 0;
};

/**
 * Per-machine connection span log (owned by the Tracer), folded at
 * record time.
 *
 * A live connection is one fixed accumulator in a dense slab, found
 * through an open-addressing id index: per-stage tick totals and span
 * counts, the core set, the last app-write and exec ends, and the span
 * count that enforces kMaxSpansPerConn. add() touches no heap. close()
 * encodes the accumulator into one compact, exact ConnSpanRecord in a
 * chunked SpanRecordArena (completion order), and the slot is reused.
 * Raw spans are not kept; a ConnSpanTap (the Perfetto exporter's
 * ConnSpanRecorder) sees them when something asks.
 *
 * All mutators are no-ops when disabled, and the allocation counter
 * stays zero — the bench-mode "--notrace costs nothing" assert keys on
 * that.
 */
class ConnSpanLog
{
  public:
    /** Spans retained per connection before dropping (and counting). */
    static constexpr std::size_t kMaxSpansPerConn = 96;
    /** Completed traces retained before dropping whole traces. */
    static constexpr std::size_t kMaxRetainedTraces = 1u << 18;
    /** Cores a record's core set can name (Tracer enforces it). */
    static constexpr int kMaxCores = 64;

    void setEnabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /** Forward every accepted call to @p tap (null detaches). The tap
     *  must outlive the log or be detached first. */
    void setTap(ConnSpanTap *tap) { tap_ = tap; }

    /** Begin a trace for @p conn_id (kernel TCB creation). */
    void open(std::uint64_t conn_id, Tick t, bool passive);

    /** Append one stage span; unknown ids are ignored (the trace may
     *  already be finalized, e.g. stray packets after destruction). */
    void add(std::uint64_t conn_id, ConnStage stage, CoreId core,
             Tick begin, Tick end, std::uint32_t aux = 0);

    /** Record an admission-control shed verdict on the trace. */
    void noteShed(std::uint64_t conn_id, std::uint8_t reason);

    /** Attach the distributed trace context (kernel TCB inherit). */
    void setTraceId(std::uint64_t conn_id, std::uint64_t trace_id);

    /** Finalize the trace (TCB destruction) in completion order. */
    void close(std::uint64_t conn_id, Tick t);

    /** Finalize every still-live trace at @p t (machine death: the
     *  TCBs never destruct, so their spans would otherwise leak).
     *  Records keep closed=false to mark the abnormal finalization;
     *  processed in ascending conn-id order for determinism. */
    void closeAllLive(Tick t);

    /** Deterministic snapshot of still-open traces (connections in
     *  flight at collection time) as records with closeTick 0 and
     *  closed=false, ascending conn-id order. A span does not need an
     *  orderly close to join an end-to-end trace — e.g. a server stuck
     *  retransmitting its FIN through a NAT flow that died in a
     *  balancer failover still served the request. */
    SpanRecordArena liveSnapshot() const;

    /** Completed records, oldest first (completion order). */
    const SpanRecordArena &completed() const { return completed_; }

    std::size_t completedCount() const { return completed_.size(); }
    std::size_t liveCount() const { return live_; }

    /** @name Accounting */
    /** @{ */
    std::uint64_t opened() const { return opened_; }
    std::uint64_t closedTotal() const { return closedTotal_; }
    std::uint64_t spansRecorded() const { return spansRecorded_; }
    std::uint64_t spansDropped() const { return spansDropped_; }
    std::uint64_t tracesDropped() const { return tracesDropped_; }
    /** Heap allocations made by the log: live slab and index growth
     *  plus one per arena chunk. Exactly zero when the log is
     *  disabled, and flat per connection once the live high-water
     *  mark is reached. */
    std::uint64_t allocations() const { return allocations_; }
    /** @} */

    /**
     * Total exec-span cycles recorded against @p core, across live,
     * completed and retention-dropped traces. Reconciles against
     * CpuModel::busyTicks(core): recorded exec time can never exceed
     * what the core actually ran.
     */
    std::uint64_t execSelfTicks(CoreId core) const;

  private:
    /** Fold state of one live connection. */
    struct LiveConn
    {
        std::uint64_t connId = 0;
        std::uint64_t traceId = 0;
        Tick openTick = 0;
        Tick lastWriteEnd = 0;  //!< 0 = no kAppWrite span yet
        Tick lastExecEnd = 0;
        std::uint64_t cores = 0;
        Tick ticks[kNumConnStages] = {};
        std::uint8_t counts[kNumConnStages] = {};
        std::uint8_t spans = 0; //!< retained spans (<= kMaxSpansPerConn)
        std::uint8_t shedReason = ConnSpanTrace::kNotShed;
        bool passive = true;
    };
    /** Id index bucket; slot == kNoSlot marks it empty. */
    struct Bucket
    {
        std::uint64_t id = 0;
        std::uint32_t slot = kNoSlot;
    };
    static constexpr std::uint32_t kNoSlot = 0xffffffffu;

    LiveConn *findLive(std::uint64_t conn_id);
    void insertLive(std::uint64_t conn_id, std::uint32_t slot);
    void eraseLive(std::uint64_t conn_id);
    void growIndex();
    /** (connId, slot) of every live connection, ascending id. */
    std::vector<std::pair<std::uint64_t, std::uint32_t>> sortedLive()
        const;
    void finalize(std::uint32_t slot, Tick t, bool closed);
    static void encode(const LiveConn &c, Tick close_tick, bool closed,
                       SpanRecordArena &out);

    bool enabled_ = true;
    ConnSpanTap *tap_ = nullptr;
    std::vector<LiveConn> slab_;
    std::vector<std::uint32_t> freeSlots_;
    std::vector<Bucket> index_;  //!< power-of-two, load <= 1/2
    std::size_t live_ = 0;
    SpanRecordArena completed_;
    std::uint64_t execTicksPerCore_[kMaxCores] = {};

    std::uint64_t opened_ = 0;
    std::uint64_t closedTotal_ = 0;
    std::uint64_t spansRecorded_ = 0;
    std::uint64_t spansDropped_ = 0;
    std::uint64_t tracesDropped_ = 0;
    std::uint64_t allocations_ = 0;
};

/**
 * Raw-span retention as a tap: keeps every connection's ConnSpan
 * vector under the same per-connection and retention caps as the log,
 * for consumers that need individual spans (the Perfetto exporter,
 * span-level tests). Attached only on request (cfg.keepSpanTraces /
 * --perfetto); it allocates per span like any growing vector.
 */
class ConnSpanRecorder : public ConnSpanTap
{
  public:
    void open(std::uint64_t conn_id, Tick t, bool passive) override;
    void add(std::uint64_t conn_id, ConnStage stage, CoreId core,
             Tick begin, Tick end, std::uint32_t aux) override;
    void noteShed(std::uint64_t conn_id, std::uint8_t reason) override;
    void setTraceId(std::uint64_t conn_id,
                    std::uint64_t trace_id) override;
    void close(std::uint64_t conn_id, Tick t) override;
    void closeAllLive(Tick t) override;

    /** Completed raw traces, oldest first (completion order). */
    const std::vector<ConnSpanTrace> &completed() const
    {
        return completed_;
    }

  private:
    void retire(ConnSpanTrace &&tr);

    std::unordered_map<std::uint64_t, ConnSpanTrace> live_;
    std::vector<ConnSpanTrace> completed_;
};

} // namespace fsim

#endif // FSIM_TRACE_CONN_SPAN_HH
