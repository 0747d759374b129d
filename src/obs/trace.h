/**
 * @file
 * Flit-lifecycle tracing (docs/OBSERVABILITY.md).
 *
 * A TraceSink records one TraceRecord per flit-lifecycle event —
 * injection, VC allocation (route decision), switch allocation
 * (traversal grant), link traversal, retransmission, nack, drop,
 * ejection — into a preallocated ring buffer.  Every event is tagged
 * with a *track*: a small integer naming the router, channel or
 * terminal it happened on, which becomes one timeline row in the
 * Chrome trace_event / Perfetto export (obs/trace_export.h).
 *
 * Cost discipline (the observability layer must never distort the
 * hot path it observes):
 *
 *  - **disabled** tracing is one branch: components hold a
 *    `TraceSink *` that is nullptr when tracing is off, and every
 *    record site goes through FBFLY_TRACE(), which tests the pointer
 *    and does nothing else.  Defining FBFLY_TRACE_DISABLED at compile
 *    time removes even that branch.
 *  - **enabled** tracing is an array store: the ring buffer is
 *    preallocated at construction, record() never allocates, and a
 *    run-time event mask (setMask / TraceLevel) drops unwanted
 *    categories before the store.
 *
 * Determinism: a TraceSink is single-simulation state (one Network,
 * one sink), written only from that simulation's thread.  The sweep
 * engine gives every point its own sink, and sinks are compared /
 * merged strictly in point-index order, so traces are bit-identical
 * for any `--threads N` — the PR 2 determinism contract extended to
 * observability (tests/test_obs_determinism.cc).
 */

#ifndef FBFLY_OBS_TRACE_H
#define FBFLY_OBS_TRACE_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "network/flit.h"

namespace fbfly
{

/** Flit-lifecycle event categories. */
enum class TraceEventType : std::uint8_t
{
    /** Flit left its source queue onto the injection channel
     *  (terminal track). */
    kInject = 0,
    /** Routing decision made: output port + VC chosen for a buffered
     *  head flit (router track; a = outPort, b = outVc). */
    kVcAlloc = 1,
    /** Switch allocation grant: the flit won arbitration and departed
     *  on its output channel (router track; a = outPort, b = outVc). */
    kSwAlloc = 2,
    /** First wire attempt on an inter-router channel (channel
     *  track). */
    kLinkTraverse = 3,
    /** Retransmission wire attempt by the link-layer retry protocol
     *  (channel track). */
    kRetry = 4,
    /** Receiver nacked a corrupted or out-of-sequence arrival
     *  (channel track; a = expected link sequence, saturated). */
    kNack = 5,
    /** Flit dropped by a router (unreachable destination or wormhole
     *  truncation; router track). */
    kDrop = 6,
    /** Flit ejected at its destination terminal (terminal track). */
    kEject = 7,
    /** Service event: a channel or router went down (churn model;
     *  channel/router track; a = entity index, b = churn episode). */
    kChurn = 8,
    /** Service event: a channel or router came back up after repair
     *  (channel/router track; a = entity index, b = churn episode). */
    kRepair = 9,
    /** Liveness diagnosis: this lane is a member of a diagnosed
     *  cyclic VC dependency (channel track; a = VC, b = upstream
     *  credit level; see sim/liveness.h). */
    kDeadlock = 10,
    /** Liveness recovery action applied (router track; a = input
     *  port of the killed victim or -1 for escape-drain, b = flits
     *  killed). */
    kRecovery = 11,
};

/** Number of TraceEventType values (for per-type counters). */
inline constexpr int kNumTraceEventTypes = 12;

/** Short lowercase name of an event type ("inject", ...). */
const char *toString(TraceEventType t);

/**
 * Coarse run-time gating levels (each is an event mask preset).
 */
enum class TraceLevel : std::uint8_t
{
    /** Record nothing (mask 0); prefer a null sink pointer when the
     *  decision is static. */
    kOff = 0,
    /** Packet-boundary events only: inject, eject, drop — plus the
     *  (rare) churn/repair service events, which reconfigure the
     *  network and so belong in even the coarsest timeline. */
    kPackets = 1,
    /** Everything (the default). */
    kFull = 2,
};

/**
 * One traced event.  Fixed-size, integer-only — so the canonical text
 * serialization (toText) is byte-identical across platforms, build
 * modes and sanitizers, which the golden-trace regression fixture
 * relies on.
 */
struct TraceRecord
{
    Cycle cycle = 0;
    FlitId flit = 0;
    PacketId packet = 0;
    NodeId src = kInvalid;
    NodeId dst = kInvalid;
    /** Track (timeline row) the event belongs to. */
    std::int32_t track = -1;
    /** Event-specific operands (port/VC/sequence); -1 when unused. */
    std::int32_t a = -1;
    std::int32_t b = -1;
    TraceEventType type = TraceEventType::kInject;
};

/** What a track represents (names the Perfetto row grouping). */
enum class TrackKind : std::uint8_t
{
    kRouter = 0,
    kChannel = 1,
    kTerminal = 2,
};

/**
 * Ring-buffer trace sink; see the file comment for the contract.
 */
class TraceSink
{
  public:
    /** Default ring capacity: 1 Mi events (~48 MiB). */
    static constexpr std::size_t kDefaultCapacity =
        std::size_t{1} << 20;

    /**
     * @param capacity ring size in events (>= 1).  When the ring is
     *        full the *oldest* events are overwritten (the tail of a
     *        run is usually the interesting part) and
     *        droppedRecords() counts the loss.
     */
    explicit TraceSink(std::size_t capacity = kDefaultCapacity);

    /** @name Run-time gating @{ */

    /** Set the event mask from a coarse level preset. */
    void setLevel(TraceLevel level);

    /** Set the event mask directly (bit i gates TraceEventType i). */
    void setMask(std::uint32_t mask) { mask_ = mask; }

    std::uint32_t mask() const { return mask_; }

    /** True when @p t passes the current mask. */
    bool wants(TraceEventType t) const
    {
        return (mask_ &
                (1u << static_cast<unsigned>(t))) != 0;
    }

    /** @} */

    /** @name Track registry @{ */

    struct Track
    {
        std::string name;
        TrackKind kind;
    };

    /** Register a track; returns its id.  Called once per
     *  router/channel/terminal by Network at construction, in a
     *  deterministic order. */
    std::int32_t addTrack(std::string name, TrackKind kind);

    const std::vector<Track> &tracks() const { return tracks_; }

    /** @} */

    /** @name Recording (hot path) @{ */

    /**
     * Record one event.  Never allocates; drops silently (with a
     * count) once the mask rejects the type, and overwrites the
     * oldest event when the ring is full.
     */
    void record(TraceEventType type, Cycle cycle, std::int32_t track,
                const Flit &f, std::int32_t a = -1,
                std::int32_t b = -1);

    /** @} */

    /** @name Multi-shard staging @{
     *
     * Phase workers of a multi-shard step (DESIGN.md "Step engine")
     * must not write the shared ring concurrently, so each shard
     * stages its records into a private buffer installed
     * thread-locally; the serial commit replays each phase segment in
     * ascending-shard order — the order one shard records them
     * directly — keeping the ring contents, overwrite behavior and
     * counters bit-identical.
     */

    /** Per-shard record staging buffer. */
    struct Stage
    {
        struct StagedRecord
        {
            TraceEventType type;
            Cycle cycle;
            std::int32_t track;
            Flit flit;
            std::int32_t a;
            std::int32_t b;
        };
        std::vector<StagedRecord> recs;
        /** Segment end offsets into `recs` (one per mark()). */
        std::vector<std::size_t> seg;

        void reset()
        {
            recs.clear();
            seg.clear();
        }

        /** Close the current phase segment. */
        void mark() { seg.push_back(recs.size()); }
    };

    /** Install @p stage as this thread's record redirect (nullptr to
     *  restore direct recording). */
    static void stageTo(Stage *stage) { tlsStage_ = stage; }

    /** RAII installer for stageTo(). */
    class StageGuard
    {
      public:
        explicit StageGuard(Stage *stage) { stageTo(stage); }
        ~StageGuard() { stageTo(nullptr); }
        StageGuard(const StageGuard &) = delete;
        StageGuard &operator=(const StageGuard &) = delete;
    };

    /** Replay phase segment @p seg_index of a staged record list
     *  through the real record() (serial commit path). */
    void replayStaged(const Stage &s, std::size_t seg_index);

    /**
     * Record one counter sample (a numeric time series point on a
     * track, e.g. per-channel utilization).  Kept in a separate
     * bounded buffer; exported as Chrome "C" (counter) events.
     */
    void counter(std::int32_t track, Cycle cycle, double value);

    /** @} */

    /** @name Reading @{ */

    /** Events currently held (<= capacity). */
    std::size_t size() const { return size_; }

    std::size_t capacity() const { return ring_.size(); }

    /** @p i-th held event in chronological order (0 = oldest). */
    const TraceRecord &at(std::size_t i) const;

    /** Events ever accepted by the mask (recorded + overwritten). */
    std::uint64_t recorded() const { return recorded_; }

    /** Events lost to ring overwrite. */
    std::uint64_t droppedRecords() const
    {
        return recorded_ > size_ ? recorded_ - size_ : 0;
    }

    /** Events of type @p t ever accepted (survives overwrite). */
    std::uint64_t count(TraceEventType t) const
    {
        return counts_[static_cast<std::size_t>(t)];
    }

    struct CounterSample
    {
        Cycle cycle;
        std::int32_t track;
        double value;
    };

    const std::vector<CounterSample> &counterSamples() const
    {
        return counterSamples_;
    }

    /** Counter samples dropped once the counter buffer filled. */
    std::uint64_t droppedCounterSamples() const
    {
        return droppedCounters_;
    }

    /** @} */

    /**
     * Canonical text serialization: a track table followed by one
     * line per held event (chronological) and per counter sample —
     * integers and round-trip-exact doubles only, '\n' line endings.
     * Byte-identical across platforms for identical simulations; the
     * golden-trace fixture (tests/test_golden_trace.cc) and the
     * thread-count determinism test compare this form.
     */
    std::string toText() const;

  private:
    /** Per-thread record redirect for phased stepping (null when the
     *  thread writes the ring directly). */
    static inline thread_local Stage *tlsStage_ = nullptr;

    std::vector<TraceRecord> ring_;
    std::size_t head_ = 0; ///< next write position
    std::size_t size_ = 0;
    std::uint64_t recorded_ = 0;
    std::uint32_t mask_;
    std::uint64_t counts_[kNumTraceEventTypes] = {};
    std::vector<Track> tracks_;
    std::vector<CounterSample> counterSamples_;
    std::size_t counterCapacity_;
    std::uint64_t droppedCounters_ = 0;
};

/**
 * Record-site macro: one pointer test when tracing is off, nothing
 * at all when compiled out with FBFLY_TRACE_DISABLED.
 */
#ifndef FBFLY_TRACE_DISABLED
#define FBFLY_TRACE(sink, ...)                                        \
    do {                                                              \
        if ((sink) != nullptr)                                        \
            (sink)->record(__VA_ARGS__);                              \
    } while (0)
#else
#define FBFLY_TRACE(sink, ...)                                        \
    do {                                                              \
    } while (0)
#endif

} // namespace fbfly

#endif // FBFLY_OBS_TRACE_H
