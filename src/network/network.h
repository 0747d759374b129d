/**
 * @file
 * Network — the assembled simulator.
 *
 * A Network instantiates routers, channels and terminals from a
 * Topology, drives them cycle by cycle, and aggregates statistics.
 * Traffic is supplied either through a TrafficPattern (destinations
 * drawn at injection) or by enqueueing packets with explicit
 * destinations at terminals.
 */

#ifndef FBFLY_NETWORK_NETWORK_H
#define FBFLY_NETWORK_NETWORK_H

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "fault/churn_model.h"
#include "network/active_set.h"
#include "network/channel.h"
#include "network/router.h"
#include "network/shard_pool.h"
#include "network/terminal.h"
#include "obs/trace.h"
#include "sim/stats.h"
#include "topology/topology.h"

namespace fbfly
{

class Topology;
class RoutingAlgorithm;
class TrafficPattern;
class FaultModel;
class ErrorModel;
class DeliveryOracle;
class TraceSink;

/**
 * Simulator configuration knobs.
 */
struct NetworkConfig
{
    /** Virtual channels per port (usually the routing algorithm's
     *  requirement). */
    int numVcs = 1;
    /** Buffer depth per VC, in flits.  The paper holds
     *  numVcs * vcDepth = 32 per port (Section 3.2). */
    int vcDepth = 32;
    /** Flits per packet (the paper evaluates single-flit packets). */
    int packetSize = 1;
    /** Inter-router channel latency, cycles (uniform default). */
    Cycle channelLatency = 1;
    /** Optional per-arc latencies (indexed like Topology::arcs());
     *  overrides channelLatency when non-empty.  Used for the
     *  Section 5.2 wire-delay studies. */
    std::vector<Cycle> arcLatencies;
    /** Inter-router cycles per flit; 2 halves channel bandwidth
     *  (used for the constant-bisection hypercube of Figure 6). */
    Cycle channelPeriod = 1;
    /** Terminal (node<->router) channel latency, cycles. */
    Cycle terminalLatency = 1;
    /** Master seed; all component streams derive from it. */
    std::uint64_t seed = 1;

    /**
     * Shards each cycle's phases are partitioned across (DESIGN.md
     * "Step engine").  Every cycle runs the same phased schedule;
     * with N > 1 its two phases run on N threads and a serial commit
     * replays their staged side effects, so results are
     * **bit-identical** at any N — traces, stats, RNG streams and
     * wake order all match (tests/test_shard_determinism.cc).
     * Clamped to the router count; configurations with link-layer
     * retry or an error model run on 1 shard, with a warning
     * (reliable channels carry shared protocol state across phases).
     */
    int shards = 1;

    /** Fault set to apply (nullptr: fault-free).  Must be built over
     *  the same topology and outlive the network.  Arcs and routers
     *  fail at their activation cycles; dead channels refuse flits
     *  and routers expose dead output ports to routing algorithms. */
    const FaultModel *faults = nullptr;

    /**
     * Transient-error model (nullptr: error-free wires).  Must be
     * built over the same topology and outlive the network.  A model
     * with any nonzero rate implicitly enables the link-layer retry
     * protocol on every inter-router channel (terminal channels are
     * short local wires and assumed error-free).
     */
    const ErrorModel *errors = nullptr;

    /**
     * Link-layer retry protocol knobs (window, timeout, backoff
     * cap).  Set linkRetry.enabled to run the protocol even with no
     * error model — e.g. to verify it is timing-transparent on clean
     * wires.
     */
    LinkReliabilityConfig linkRetry;

    /**
     * Dynamic-service (churn) model: a deterministic schedule of
     * link/router down/up events with full repair semantics
     * (nullptr: no churn).  Must be built over the same topology and
     * outlive the network.  A revived channel has its link-layer
     * retry state reset (unacked flits are counted as churn losses),
     * dead-port masks re-open and credit levels are recomputed so
     * every conservation invariant holds across the transition.
     * Entities failed permanently via `faults` are never revived.
     * See docs/FAULTS.md ("Churn and repair").
     */
    const ChurnModel *churn = nullptr;

    /** End-to-end delivery oracle to notify at measured-packet
     *  injection/ejection (nullptr: no auditing).  Must outlive the
     *  network. */
    DeliveryOracle *oracle = nullptr;

    /** Forward-progress watchdog: if no flit moves for this many
     *  cycles while work is pending, stalled() turns true (and step()
     *  keeps running so the caller can collect stallDump()).
     *  0 disables the watchdog. */
    Cycle watchdogCycles = 0;

    /** Run checkInvariants() automatically every this-many cycles and
     *  panic on violation.  0 disables (default: invariants are cheap
     *  to state but O(network) to check). */
    Cycle invariantCheckInterval = 0;

    /**
     * Flit-lifecycle trace sink (nullptr: tracing off — one dead
     * branch per record site; see obs/trace.h).  Must outlive the
     * network.  The network registers one track per router, arc and
     * terminal, in that order, at construction.
     */
    TraceSink *trace = nullptr;

    /**
     * Shadow-kernel wake-contract verifier: every cycle, diff "who
     * would have done work under the pre-active-set full-tick loop"
     * (Router/Terminal::hasActionableWork) against the ActiveSet and
     * panic on the first missed wake — a component with actionable
     * work the kernel did not schedule.  Turns the active-set
     * rewrite's correctness argument into an enforced runtime
     * invariant, at full-loop cost (debug/CI use; the FBFLY_VERIFY_WAKES
     * environment variable force-enables it process-wide).
     */
    bool verifyWakeContract = false;
};

/**
 * First wake-contract divergence seen by the shadow-kernel verifier:
 * a component that the pre-rewrite full-tick loop would have run but
 * the ActiveSet did not schedule.
 */
struct WakeDivergence
{
    /** Component id (routers [0, R), terminals [R, R + N)). */
    std::uint32_t component = 0;
    /** Cycle the missed wake was detected. */
    Cycle cycle = 0;
    /** True when the miss was injected via debugSuppressComponent()
     *  (test hook) rather than a genuine kernel bug. */
    bool injected = false;
};

/**
 * Aggregate simulation statistics.
 */
struct NetworkStats
{
    /** Latency of measured packets: ejection - creation. */
    RunningStats packetLatency;
    /** Latency of measured packets: ejection - injection (excludes
     *  source queueing). */
    RunningStats networkLatency;
    /** Channel traversals of measured packets. */
    RunningStats hops;
    /** Measured packet latency histogram (unit buckets). */
    Histogram latencyHist{4096};

    std::uint64_t flitsInjected = 0;
    std::uint64_t flitsEjected = 0;
    /** Sum of channel traversals (hops) over every ejected flit —
     *  exact (integer), unlike the Welford `hops` which covers only
     *  measured packets.  The conservation property test reconciles
     *  this against per-channel flit counts
     *  (tests/test_conservation.cc). */
    std::uint64_t hopsEjected = 0;
    std::uint64_t packetsEjected = 0;
    std::uint64_t measuredCreated = 0;
    std::uint64_t measuredEjected = 0;

    /** Flits dropped by routers (unreachable destinations or
     *  wormhole truncation at a failed link). */
    std::uint64_t flitsDropped = 0;
    /** Packets dropped as unreachable (counted at the tail flit). */
    std::uint64_t packetsUnreachable = 0;
    /** Dropped packets belonging to the measurement sample. */
    std::uint64_t measuredDropped = 0;

    /** Packets sitting in source queues. */
    std::int64_t pendingPackets = 0;
    /** Terminals currently mid-packet (wormhole injection). */
    int midPacketTerminals = 0;

    /** @name Dynamic-service (churn) accounting @{ */
    /** Down (link/router) service events applied so far. */
    std::uint64_t churnDownEvents = 0;
    /** Repair (link/router) service events applied so far. */
    std::uint64_t churnRepairEvents = 0;
    /** Flits lost at link repair: unacked go-back-N replay state of
     *  a revived reliable channel (folded into flitsDropped). */
    std::uint64_t churnFlitsLost = 0;
    /** Packets lost at link repair (folded into
     *  packetsUnreachable). */
    std::uint64_t churnPacketsLost = 0;
    /** Churn-lost packets belonging to the measurement sample
     *  (folded into measuredDropped — the delivery oracle treats
     *  them as expected drops). */
    std::uint64_t churnMeasuredLost = 0;
    /** @} */
};

/**
 * Result of a pre-flight configuration validation.
 */
struct ValidationReport
{
    /** Human-readable problems; empty when the config is sound. */
    std::vector<std::string> issues;

    bool ok() const { return issues.empty(); }

    /** All issues joined with newlines ("" when ok). */
    std::string summary() const;
};

/**
 * The assembled, runnable network.
 */
class Network
{
  public:
    /**
     * Pre-flight check of a (topology, routing, config) triple —
     * rejects inconsistent configurations before they can corrupt or
     * hang a simulation:
     *  - VC count below the routing algorithm's requirement;
     *  - non-positive buffer depths / packet sizes / latencies;
     *  - arcLatencies that do not match the topology's arc list;
     *  - arcs referencing out-of-range routers or ports, or wiring
     *    the same (router, port) twice;
     *  - terminal injection/ejection ports out of range or colliding
     *    with inter-router ports;
     *  - fault sets built over a different topology, or that
     *    disconnect (or isolate) a terminal-hosting router;
     *  - faults combined with connectivity-preserving churn whose
     *    merged schedule disconnects the alive terminal-hosting
     *    routers (the churn model prunes against its own outages
     *    only).
     *
     * Pure function of its inputs; does not build the network.
     */
    static ValidationReport validate(const Topology &topo,
                                     const RoutingAlgorithm &algo,
                                     const NetworkConfig &cfg);

    /**
     * Build a network.
     *
     * @param topo   static structure (must outlive the network).
     * @param algo   routing algorithm (must outlive the network);
     *               its numVcs() must equal cfg.numVcs.
     * @param pattern traffic pattern for destination draws, or
     *               nullptr if all packets carry explicit
     *               destinations.
     * @param cfg    simulator configuration.
     */
    Network(const Topology &topo, RoutingAlgorithm &algo,
            const TrafficPattern *pattern, const NetworkConfig &cfg);

    Network(const Network &) = delete;
    Network &operator=(const Network &) = delete;

    /** Advance one cycle. */
    void step();

    /** Current cycle (cycles completed). */
    Cycle now() const { return now_; }

    /** Shards the step engine actually runs with (cfg.shards after
     *  clamping and the reliable-link fallback). */
    int shardCount() const { return shardCount_; }

    Terminal &terminal(NodeId n) { return terminals_[n]; }
    const Terminal &terminal(NodeId n) const { return terminals_[n]; }
    Router &router(RouterId r) { return routers_[r]; }
    const Router &router(RouterId r) const { return routers_[r]; }
    int numRouters() const { return static_cast<int>(routers_.size()); }
    std::int64_t numNodes() const
    {
        return static_cast<std::int64_t>(terminals_.size());
    }

    const Topology &topologyRef() const { return topo_; }

    NetworkStats &stats() { return stats_; }
    const NetworkStats &stats() const { return stats_; }

    /** True when no packet or flit exists anywhere in the system
     *  (dropped flits count as having left). */
    bool quiescent() const;

    /** @name Self-checking (watchdog + conservation invariants) @{ */

    /**
     * Forward-progress watchdog: true when cfg.watchdogCycles > 0,
     * work is pending (flits in the network or packets queued), and
     * nothing has moved for more than cfg.watchdogCycles cycles —
     * i.e. the network is deadlocked or livelocked.
     */
    bool stalled() const;

    /** Cycle of the last observed flit movement. */
    Cycle lastProgressCycle() const { return lastProgress_; }

    /**
     * Diagnostic dump of stuck state: per-router buffered flits with
     * their (routed) output ports, VC credit levels, channel
     * liveness, and in-flight counts.  Non-empty whenever any flit
     * is buffered or in flight.
     */
    std::string stallDump(int max_flits = 32) const;

    /**
     * Per-cycle conservation invariants, checkable between steps:
     *  - flit conservation: flits injected == flits buffered in
     *    routers + in flight on channels + ejected + dropped;
     *  - credit conservation per alive inter-router (arc, VC) lane:
     *    upstream credits + downstream buffer occupancy + flits in
     *    flight + credits in flight == vcDepth;
     *  - ditto for terminal injection lanes;
     *  - buffered-flit counters match buffer contents.
     *
     * @return empty string when all invariants hold, else a
     *         description of the first violations.
     */
    std::string checkInvariants() const;

    /** @} */

    /** Flits carried so far by each inter-router channel, indexed
     *  like Topology::arcs().  Snapshot before/after a window to
     *  compute channel utilizations (load-balance diagnostics).
     *  With link-level retry enabled this counts wire *attempts*
     *  (retransmissions consume bandwidth like any other flit). */
    std::vector<std::uint64_t> interRouterFlitCounts() const;

    /** Link-layer reliability counters summed over every
     *  inter-router channel (all zero when the retry protocol is
     *  off).  See LinkStats. */
    LinkStats linkStats() const;

    /** The delivery oracle this network reports to (may be null). */
    DeliveryOracle *oracle() const { return cfg_.oracle; }

    /** @name Observability (docs/OBSERVABILITY.md) @{ */

    /** The trace sink events go to (may be null). */
    TraceSink *traceSink() const { return cfg_.trace; }

    /** Virtual channels per port. */
    int numVcs() const { return cfg_.numVcs; }

    /** Inter-router channel count (== Topology::arcs().size()). */
    std::size_t numArcs() const { return numArcs_; }

    /** Trace track id of inter-router channel @p arc, or -1 when no
     *  trace sink is attached. */
    std::int32_t arcTrack(std::size_t arc) const
    {
        return cfg_.trace != nullptr
                   ? arcTracks_[arc]
                   : std::int32_t{-1};
    }

    /** Flits buffered network-wide on virtual channel @p vc
     *  (occupancy sampling, obs/obs_sampler.h). */
    std::int64_t bufferedFlitsOnVc(VcId vc) const;

    /** @} */

    /** @name Services used by terminals @{ */
    NodeId drawDest(NodeId src, Rng &rng) const;
    int packetSize() const { return cfg_.packetSize; }
    /** @} */

    /** @name Liveness introspection & recovery (sim/liveness.h) @{ */

    /** The directed inter-router arc list this network was wired
     *  from (indexed like Topology::arcs()). */
    const std::vector<Topology::Arc> &arcList() const { return arcs_; }

    /** The channel carrying inter-router arc @p i. */
    const Channel &arcChannel(std::size_t i) const
    {
        return channels_[i];
    }

    /** Node @p n's injection (node -> router) channel. */
    const Channel &injectionChannel(NodeId n) const
    {
        return *injChannels_[static_cast<std::size_t>(n)];
    }

    /** Node @p n's ejection (router -> node) channel. */
    const Channel &ejectionChannel(NodeId n) const
    {
        return *ejChannels_[static_cast<std::size_t>(n)];
    }

    /** The kernel's runnable-component scheduler (diagnosis only). */
    const ActiveSet &activeSet() const { return active_; }

    /** Trace track id of router @p r, or -1 when no trace sink is
     *  attached. */
    std::int32_t routerTrack(RouterId r) const
    {
        return cfg_.trace != nullptr
                   ? routerTracks_[static_cast<std::size_t>(r)]
                   : std::int32_t{-1};
    }

    /**
     * Restart after a liveness recovery action (sim/liveness.h):
     * folds any pending router drop deltas into the aggregate stats
     * (so killed victims are visible to conservation checks and the
     * delivery oracle's expected-loss accounting this very cycle),
     * resets the forward-progress watermark, and wakes every
     * component so freed credits and re-exposed routes are acted on.
     */
    void restartAfterRecovery();

    /**
     * Test hook: permanently drop component @p c from every cycle's
     * runnable set, simulating a lost wake.  The component's work is
     * stranded exactly as a kernel bug would strand it — the shadow
     * verifier reports the divergence as injected, and the liveness
     * classifier must diagnose the resulting stall as a kernel bug.
     */
    void debugSuppressComponent(std::uint32_t c);

    /** Undo debugSuppressComponent() (recovery can then proceed). */
    void debugClearSuppressed();

    /** Shadow-kernel verifier: the first missed-wake divergence
     *  observed, if any (empty when the verifier is off or the wake
     *  contract held every checked cycle). */
    const std::optional<WakeDivergence> &wakeDivergence() const
    {
        return wakeDivergence_;
    }

    /** Cycles checked by the shadow-kernel verifier so far. */
    std::uint64_t wakeChecks() const { return wakeChecks_; }

    /** True when the shadow-kernel verifier is running (config flag
     *  or FBFLY_VERIFY_WAKES environment variable). */
    bool verifyingWakes() const { return verifyWakes_; }

    /** One component's work/wake state for the verifier and the
     *  liveness classifier's kernel-bug check. */
    bool componentHasActionableWork(std::uint32_t c, Cycle at) const;

    /** @} */

  private:
    /** @name Outages: permanent faults and churn (docs/FAULTS.md) @{ */

    /** One entry of the outage schedule: a churn service event, or a
     *  permanent fault — a down event that is never repaired. */
    struct Outage
    {
        ServiceEvent ev;
        bool permanent = false;
    };

    /** cfg.faults' failures (one arc-down per failed arc, one
     *  router-down per failed router) and cfg.churn's events merged
     *  into one time-sorted schedule, faults first within a cycle. */
    static std::vector<Outage> outageSchedule(const NetworkConfig &cfg);

    /** Apply every outage entry whose cycle is <= @p now. */
    void applyOutages(Cycle now);

    /** Apply one outage entry (kill or repair). */
    void applyOutage(const Outage &o, Cycle now);

    /** Take (@p down) or release one down-cause on arc @p i (its
     *  link's outage, an incident router's, or a fault): the channel
     *  dies on 0 -> 1 and revives, with recomputed upstream credits,
     *  on 1 -> 0. */
    void setArcDown(std::size_t i, bool down);

    /** The same for router @p r: on 0 <-> 1 its incident arcs (one
     *  cause each) and its terminals' channels die or revive. */
    void setRouterDown(RouterId r, bool down);

    /** Ground-truth credit levels for the upstream end of channel
     *  @p ch, which feeds input @p port of router @p r: vcDepth minus
     *  downstream occupancy and flits and credits in flight. */
    std::vector<int> reviveCredits(const Channel &ch, RouterId r,
                                   PortId port) const;

    /** @} */

    const Topology &topo_;
    RoutingAlgorithm &algo_;
    const TrafficPattern *pattern_;
    NetworkConfig cfg_;

    Cycle now_ = 0;
    PacketId nextPacket_ = 0;
    FlitId nextFlit_ = 0;

    /** All channels (inter-router by arc index, then one
     *  injection + one ejection channel per node).  Sized exactly
     *  once with reserve() before wiring — pointers into it stay
     *  stable and the storage is one contiguous allocation (the
     *  memory-lean contract for 100k-terminal networks). */
    std::vector<Channel> channels_;
    std::vector<Router> routers_;
    std::vector<Terminal> terminals_;
    std::vector<Topology::Arc> arcs_;
    std::size_t numArcs_ = 0;
    /** Terminal-side channels by node (fault application). */
    std::vector<Channel *> injChannels_;
    std::vector<Channel *> ejChannels_;

    /** @name Outage state @{ */
    /** The merged fault + churn schedule (outageSchedule()). */
    std::vector<Outage> outages_;
    /** Next unapplied entry of outages_. */
    std::size_t nextOutage_ = 0;
    /** Per-arc and per-router counts of active down-causes; an arc or
     *  router is down while its count is nonzero.  A permanent fault
     *  holds a cause it never releases.  Empty when outages_ is. */
    std::vector<int> arcDownCauses_;
    std::vector<int> routerDownCauses_;
    /** @} */

    /** Shadow-kernel wake-contract verifier: run the full-loop work
     *  predicate over every component and diff it against the
     *  ActiveSet at cycle @p t (after beginCycle, before any phase
     *  runs). */
    void verifyWakes(Cycle t);

    /** Forward-progress watermark. */
    Cycle lastProgress_ = 0;

    /** @name Shadow-kernel verifier state @{ */
    bool verifyWakes_ = false;
    std::uint64_t wakeChecks_ = 0;
    std::optional<WakeDivergence> wakeDivergence_;
    /** Components with debug-suppressed wakes (test hook; empty in
     *  normal operation). */
    std::vector<std::uint32_t> suppressed_;
    /** @} */

    /** @name Step engine (DESIGN.md "Step engine") @{ */

    /** One shard: a contiguous router range + a contiguous terminal
     *  range, plus the buffers its phase work writes into (folded,
     *  merged or replayed by the serial commit). */
    struct ShardContext
    {
        /** Component-id ranges [lo, hi): routers in [0, R),
         *  terminals in [R, R + N). */
        std::uint32_t routerLo = 0;
        std::uint32_t routerHi = 0;
        std::uint32_t termLo = 0;
        std::uint32_t termHi = 0;

        /** Wake and trace staging; installed only when more than one
         *  shard runs (one shard wakes and records directly). */
        ActiveSet::WakeStage wake;
        TraceSink::Stage trace;
        Terminal::ShardSink term;

        /** Flits moved by this shard's routers (progress watchdog). */
        int moved = 0;
        /** Router drop deltas (drainPendingDrops). */
        std::uint64_t dropFlits = 0;
        std::uint64_t dropPackets = 0;
        std::uint64_t dropMeasured = 0;
    };

    /** The cycle's phases and commit, run when any component is
     *  active; t == now_. */
    void runPhases(Cycle t);

    /** Phase A on one shard: router receive, then terminal receive
     *  + planInject. */
    void phaseA(ShardContext &sc, Cycle t);

    /** Phase B on one shard: router route + traverse, then terminal
     *  executeInject. */
    void phaseB(ShardContext &sc, Cycle t);

    /** Close one staged segment (the router or terminal half of a
     *  phase); no-op when nothing is staged. */
    void markSegment(ShardContext &sc);

    /** Serial commit: fold every shard's terminal stats and drops in
     *  eject-then-inject order and, when staged, merge/replay its
     *  wakes and trace records in ascending shard order (== ascending
     *  component id).  Leaves the shard counters zeroed.
     *  @return true when any flit moved, ejected, injected or was
     *  dropped this cycle (forward progress). */
    bool commitPhases(Cycle t);

    /** Effective shard count (clamp + reliable-link fallback). */
    int shardCount_ = 1;
    /** Wakes and trace records are staged only when phase bodies run
     *  concurrently (shardCount_ > 1).  One shard runs every body on
     *  the calling thread in schedule order — the order the commit
     *  would replay — so its wakes and records go direct. */
    bool staged_ = false;
    /** shardCount_ entries. */
    std::vector<ShardContext> shards_;
    /** shardCount_ - 1 workers; the calling thread runs shard 0. */
    std::unique_ptr<PhasePool> pool_;

    /** @} */

    /** Runnable-component scheduler: routers are components
     *  [0, R), terminals [R, R + N).  Idle components are skipped
     *  by step() (see src/network/active_set.h and DESIGN.md). */
    ActiveSet active_;
    /** algo_.sequential() hoisted once per cycle (SwitchableRouting
     *  may change it between cycles, so it cannot be cached at
     *  construction). */
    bool algoSequential_ = false;

    /** Trace track ids of inter-router channels (empty when
     *  cfg_.trace is null). */
    std::vector<std::int32_t> arcTracks_;
    /** Trace track ids of routers (empty when cfg_.trace is null). */
    std::vector<std::int32_t> routerTracks_;

    NetworkStats stats_;
};

} // namespace fbfly

#endif // FBFLY_NETWORK_NETWORK_H
