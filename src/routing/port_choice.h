/**
 * @file
 * The port-choice policy shared by every adaptive routing family.
 *
 * Paper Section 3.1 builds the adaptive algorithms from two rules:
 * take "the productive channel with the shortest queue", and decide
 * UGAL-style at the source by comparing queue x hops.  Fault-aware
 * routing adds a third: when every productive channel has failed,
 * escape on a random alive channel under a misroute budget.  Each
 * rule is written once here; a family supplies only which ports are
 * productive, the order it offers them in, and its VC rule.
 *
 * Dead output ports are never candidates.  Both choosers draw from
 * the router's random stream in a fixed pattern (one draw per tie,
 * one per alive escape offer), so a family's decisions depend only
 * on the order it offers its ports in.
 */

#ifndef FBFLY_ROUTING_PORT_CHOICE_H
#define FBFLY_ROUTING_PORT_CHOICE_H

#include "network/flit.h"
#include "network/router.h"
#include "routing/routing.h"

namespace fbfly
{

/**
 * Queue estimate of a dead first hop in a source decision:
 * prohibitive, so the alternative wins unless it is equally dead
 * (then the escape rule takes over anyway).
 */
constexpr int kDeadQueue = 1 << 20;

/** Escape hops a packet may spend before it is dropped, on a
 *  topology whose minimal routes take at most @p diameter hops. */
constexpr int
misrouteBudget(int diameter)
{
    return 4 * diameter + 8;
}

/** Queue estimate of first hop @p port: kDeadQueue when dead. */
inline int
firstHopQueue(const Router &router, PortId port)
{
    return router.outputAlive(port) ? router.estimatedQueue(port)
                                    : kDeadQueue;
}

/**
 * UGAL's source decision: estimated delay = (queue + the hop itself)
 * x hops, minimal on a tie.  Counting the hop keeps empty-queue
 * comparisons honest (an empty non-minimal path still costs h_val
 * cycles).
 */
inline bool
ugalPrefersMinimal(int q_min, int h_min, int q_val, int h_val)
{
    return static_cast<long>(q_min + 1) * h_min <=
           static_cast<long>(q_val + 1) * h_val;
}

/**
 * The alive offered port with the shortest estimated queue; ties are
 * broken uniformly by reservoir sampling, one draw per tie.
 */
class ShortestQueue
{
  public:
    explicit ShortestQueue(Router &router) : router_(router) {}

    /** Consider @p port (skipped when dead). */
    void offer(PortId port)
    {
        if (!router_.outputAlive(port))
            return;
        const int q = router_.estimatedQueue(port);
        if (best_ == kInvalid || q < queue_) {
            best_ = port;
            queue_ = q;
            ties_ = 1;
        } else if (q == queue_) {
            const int ties = ++ties_;
            if (router_.rng().nextBounded(ties) == 0)
                best_ = port;
        }
    }

    /** The winner, or kInvalid when no offered port was alive. */
    PortId port() const { return best_; }

    /** The winner's queue estimate (kDeadQueue when none). */
    int queue() const { return best_ == kInvalid ? kDeadQueue : queue_; }

  private:
    Router &router_;
    PortId best_ = kInvalid;
    int queue_ = 0;
    int ties_ = 0;
};

/**
 * A uniformly random alive offered port, by reservoir sampling: one
 * draw per alive offer.
 */
class RandomAlive
{
  public:
    explicit RandomAlive(Router &router) : router_(router) {}

    /** Consider @p port; true when it became the pick. */
    bool offer(PortId port)
    {
        if (!router_.outputAlive(port))
            return false;
        const int count = ++count_;
        if (router_.rng().nextBounded(count) != 0)
            return false;
        pick_ = port;
        return true;
    }

    /** The pick, or kInvalid when no offered port was alive. */
    PortId port() const { return pick_; }

  private:
    Router &router_;
    PortId pick_ = kInvalid;
    int count_ = 0;
};

/**
 * A non-minimal escape hop around failed channels, taken when every
 * productive channel is dead.  Drops the packet when its misroute
 * budget is spent (checked before any draw) or no offered port is
 * alive; otherwise spends one unit of the budget.
 *
 * VC monotonicity does not hold on escape paths, so faulty runs rely
 * on the kernel's forward-progress watchdog (docs/FAULTS.md).
 *
 * @param diameter the topology's minimal-route hop bound.
 * @param offer    `offer(RandomAlive &)` offers the candidate ports.
 * @param vc       `vc()` is the VC of the hop once offer() has picked
 *                 it.
 */
template <typename Offer, typename Vc>
inline RouteDecision
escapeRoute(Router &router, Flit &flit, int diameter, Offer &&offer,
            Vc &&vc)
{
    if (flit.misroutes >= misrouteBudget(diameter))
        return RouteDecision::dropped();
    RandomAlive pick(router);
    offer(pick);
    if (pick.port() == kInvalid)
        return RouteDecision::dropped(); // no alive channel at all
    ++flit.misroutes;
    return {pick.port(), vc()};
}

} // namespace fbfly

#endif // FBFLY_ROUTING_PORT_CHOICE_H
