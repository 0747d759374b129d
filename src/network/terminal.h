/**
 * @file
 * Terminal — a processing node's network interface.
 *
 * Each terminal owns an unbounded source queue of pending packets,
 * injects flits into its router's terminal input port under credit
 * flow control, and receives (ejects) flits addressed to it,
 * reporting per-packet statistics to the Network through its shard's
 * stat sink.
 *
 * To keep memory O(1) per queued packet even far beyond saturation,
 * the queue stores only (creation time, destination, measured);
 * destinations may be left unresolved (kInvalid) and drawn from the
 * network's traffic pattern at injection time.
 */

#ifndef FBFLY_NETWORK_TERMINAL_H
#define FBFLY_NETWORK_TERMINAL_H

#include <deque>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "network/channel.h"
#include "network/flit.h"

namespace fbfly
{

class Network;
class TraceSink;
class TrafficPattern;

/**
 * Injection/ejection endpoint for one node.
 */
class Terminal
{
  public:
    Terminal(NodeId id, int num_vcs, int vc_depth, Rng rng,
             Network *parent);

    NodeId id() const { return id_; }

    /** @name Wiring (called by Network) @{ */
    void connectToRouter(Channel *ch) { toRouter_ = ch; }
    void connectFromRouter(Channel *ch) { fromRouter_ = ch; }
    /** @} */

    /**
     * Queue one packet for injection.
     *
     * @param create_time creation cycle (for latency accounting).
     * @param dst destination node, or kInvalid to draw from the
     *        network's traffic pattern at injection time.
     * @param measured whether the packet belongs to the measurement
     *        sample.
     */
    void enqueuePacket(Cycle create_time, NodeId dst, bool measured);

    /** @name Per-cycle phases (called by Network; DESIGN.md "Step
     *  engine") @{
     *
     * Injection is split so the only global mutation — drawing
     * packet/flit ids from the Network's counters — becomes one
     * serial per-shard step between the two phases of the cycle:
     *
     *  - receive() then planInject() (phase A): drain ejected flits
     *    and returned credits, then decide from terminal-local state
     *    whether a packet starts and whether a flit departs this
     *    cycle, apply the terminal-local start mutations (the
     *    decision inputs — own queue, own credits, own injection
     *    channel's busy/dead state — cannot change between the
     *    phases), and count the planned ids in the ShardSink;
     *  - between the phases the Network hands each shard, in
     *    ascending shard order, the first packet and flit id of its
     *    block (ShardSink::nextPacket / nextFlit);
     *  - executeInject() (phase B): draw the planned ids from the
     *    shard's block — ascending terminal order within ascending
     *    shards, so the id stream is the same at any shard count —
     *    then build and send the planned flit.
     *
     * None of them writes NetworkStats or calls the delivery oracle:
     * stats and oracle-visible flits go to the ShardSink, which the
     * Network folds in at the cycle's commit.
     */

    /**
     * Per-shard stat buffer: receive()/planInject()/executeInject()
     * accumulate integer counters as deltas and queue oracle-visible
     * flits here instead of touching the shared NetworkStats /
     * DeliveryOracle; the serial commit applies them, every eject
     * before every inject, in ascending terminal order
     * (Welford/histogram adds and oracle callbacks are
     * order-sensitive).
     */
    struct ShardSink
    {
        std::uint64_t flitsInjected = 0;
        std::uint64_t flitsEjected = 0;
        std::uint64_t hopsEjected = 0;
        std::uint64_t packetsEjected = 0;
        std::int64_t pendingPacketsDelta = 0;
        int midPacketDelta = 0;
        /** Packet starts / flit sends planned in phase A. */
        std::uint64_t plannedPackets = 0;
        std::uint64_t plannedFlits = 0;
        /** Next id of the shard's block, set between the phases and
         *  drawn by executeInject(). */
        PacketId nextPacket = 0;
        FlitId nextFlit = 0;
        /** Measured tail flits ejected this cycle, arrival order
         *  (commit: oracle->onEject + latency/hop sample adds). */
        std::vector<Flit> measuredEjects;
        /** Measured head flits injected this cycle (commit:
         *  oracle->onInject). */
        std::vector<Flit> measuredInjects;

        void reset()
        {
            flitsInjected = 0;
            flitsEjected = 0;
            hopsEjected = 0;
            packetsEjected = 0;
            pendingPacketsDelta = 0;
            midPacketDelta = 0;
            plannedPackets = 0;
            plannedFlits = 0;
            measuredEjects.clear();
            measuredInjects.clear();
        }
    };

    /** Attach the shard's stat sink (the Network does this for every
     *  terminal before the first step). */
    void setShardSink(ShardSink *sink) { sink_ = sink; }

    /** Phase A: drain ejected flits and returned credits. */
    void receive(Cycle now);

    /** Phase A: decide this cycle's injection and apply the
     *  terminal-local part (queue pop, VC selection, dest draw). */
    void planInject(Cycle now);

    /** Phase B: draw the planned ids and send the planned flit, if
     *  any (inline: most active terminals plan nothing). */
    void executeInject(Cycle now)
    {
        if (planStart_ || planSend_)
            sendPlanned(now);
    }

    /** @} */

    /** Packets waiting (not yet started injecting). */
    std::int64_t sourceQueueLength() const
    {
        return static_cast<std::int64_t>(queue_.size());
    }

    /** Packets queued or partially injected: the terminal must run
     *  again next cycle. */
    bool hasInjectionWork() const
    {
        return !queue_.empty() || remainingFlits_ > 0;
    }

    /** Credits held toward the router-side input VC @p vc (credit
     *  conservation checks). */
    int credits(VcId vc) const
    {
        return credits_[static_cast<std::size_t>(vc)];
    }

    /** Restore per-VC credit levels after an injection-channel
     *  repair (called by Network, which computes them from the
     *  router-side buffer occupancy; see Router::reviveOutput). */
    void setCredits(const std::vector<int> &credits)
    {
        credits_ = credits;
    }

    Rng &rng() { return rng_; }

    /**
     * Would the pre-rewrite full-tick loop have done anything with
     * this terminal at @p now?  True when packets are queued or
     * mid-injection, an ejection flit is due, or the injection
     * channel has a credit arrival or link-layer work pending.  The
     * shadow-kernel verifier diffs this predicate against the
     * ActiveSet (see Router::hasActionableWork).
     */
    bool hasActionableWork(Cycle now) const
    {
        if (hasInjectionWork())
            return true;
        if (fromRouter_ != nullptr && fromRouter_->hasFlitArrival(now))
            return true;
        if (toRouter_ != nullptr &&
            (toRouter_->hasCreditArrival(now) ||
             toRouter_->needsTick(now)))
            return true;
        return false;
    }

    /** Attach a trace sink (nullptr disables; see obs/trace.h).
     *  @p track is this terminal's timeline row. */
    void setTrace(TraceSink *sink, std::int32_t track)
    {
        trace_ = sink;
        traceTrack_ = track;
    }

    /** Attach the kernel's scheduler; @p comp is this terminal's
     *  component id in it (nullptr: standalone terminal in tests).
     *  Enqueuing a packet then wakes the terminal so the kernel's
     *  inject phase sees it next cycle. */
    void setScheduler(ActiveSet *sched, std::uint32_t comp)
    {
        sched_ = sched;
        comp_ = comp;
    }

  private:
    /** executeInject()'s body: draw the ids, build and send. */
    void sendPlanned(Cycle now);

    struct Pending
    {
        Cycle create;
        NodeId dst;
        bool measured;
    };

    NodeId id_;
    int numVcs_;
    Rng rng_;
    Network *parent_;

    Channel *toRouter_ = nullptr;
    Channel *fromRouter_ = nullptr;

    std::deque<Pending> queue_;
    std::vector<int> credits_; // per router-side input VC
    int lastVc_ = 0;

    /** In-progress packet state (wormhole: one VC per packet). */
    int remainingFlits_ = 0;
    int flitIndex_ = 0;
    VcId currentVc_ = kInvalid;
    Pending current_{};
    PacketId currentPacket_ = 0;

    /** This cycle's injection plan (planInject → executeInject). */
    bool planStart_ = false;
    bool planSend_ = false;

    /** This terminal's shard's stat sink. */
    ShardSink *sink_ = nullptr;

    /** Observability (nullptr: tracing off — one dead branch per
     *  record site). */
    TraceSink *trace_ = nullptr;
    std::int32_t traceTrack_ = -1;

    /** Active-set wake target (nullptr: standalone terminal). */
    ActiveSet *sched_ = nullptr;
    std::uint32_t comp_ = 0;
};

} // namespace fbfly

#endif // FBFLY_NETWORK_TERMINAL_H
