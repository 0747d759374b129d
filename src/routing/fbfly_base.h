/**
 * @file
 * Shared machinery for routing algorithms on the flattened butterfly.
 *
 * All five algorithms of paper Section 3.1 (MIN AD, VAL, UGAL,
 * UGAL-S, CLOS AD) share the coordinate bookkeeping implemented here:
 * locating the destination router, enumerating productive channels,
 * dimension-order subroutes, and the VC numbering scheme.
 *
 * VC numbering (per port, 2n' VCs for the two-phase algorithms):
 *   phase 0 (toward an intermediate): VCs [0, n') — either indexed by
 *     the ascending dimension (CLOS AD) or by hops remaining to the
 *     intermediate (UGAL), both strictly monotonic along a route;
 *   phase 1 / minimal (toward the destination): VCs [n', 2n'),
 *     indexed by hops remaining, which strictly decreases.
 * Every packet's VC sequence is strictly increasing in the total order
 * (phase-0 VCs ascending, then phase-1 VCs descending from 2n'-1), so
 * the channel-dependency graph is acyclic and routing is
 * deadlock-free.  MIN AD uses only the n' hops-remaining VCs and VAL
 * only one VC per phase, as in the paper.
 */

#ifndef FBFLY_ROUTING_FBFLY_BASE_H
#define FBFLY_ROUTING_FBFLY_BASE_H

#include "routing/port_choice.h"
#include "routing/routing.h"
#include "topology/flattened_butterfly.h"

namespace fbfly
{

class Router;
struct Flit;

/**
 * Base class for flattened-butterfly routing algorithms.
 */
class FbflyRouting : public RoutingAlgorithm
{
  protected:
    explicit FbflyRouting(const FlattenedButterfly &topo);

    /** Destination router of a flit. */
    RouterId dstRouter(const Flit &flit) const;

    /** Decision that ejects the flit to its terminal (VC 0). */
    RouteDecision eject(const Flit &flit) const;

    /**
     * Lowest dimension in which @p cur and @p tgt differ
     * (dimension-order routing's next hop), or 0 if equal.
     */
    int lowestDiffDim(RouterId cur, RouterId tgt) const;

    /** Port of the dimension-order hop from @p cur toward @p tgt. */
    PortId dorPort(RouterId cur, RouterId tgt) const;

    /**
     * Productive port with the shortest estimated queue (paper:
     * "the productive channel with the shortest queue"), failed
     * channels masked; kInvalid when every productive channel has
     * failed (callers fall back to escapeHop).
     */
    ShortestQueue bestProductive(Router &router,
                                 RouterId dst_router) const;

    /**
     * One minimal-adaptive hop (or ejection) with VCs drawn from
     * [vc_offset, vc_offset + n') by hops remaining.  When every
     * productive channel has failed, falls back to escapeHop toward
     * the destination, VC clamped into the same set.
     */
    RouteDecision minimalHop(Router &router, Flit &flit,
                             int vc_offset) const;

    /**
     * Fault-aware dimension-order hop toward @p tgt (the VAL / UGAL
     * non-minimal subroutes): the plain DOR hop when its channel is
     * alive, else a productive hop in another differing dimension,
     * else escapeHop toward @p tgt.
     *
     * @param fixed_vc >= 0: use this VC for the hop (VAL's one VC
     *        per phase); < 0: index VCs by hops remaining within
     *        [vc_offset, vc_offset + n') (UGAL).
     */
    RouteDecision dorHopAlive(Router &router, Flit &flit,
                              RouterId tgt, int vc_offset,
                              VcId fixed_vc) const;

    const FlattenedButterfly &topo_;

  private:
    /**
     * Budgeted escape toward @p tgt (escapeRoute): a random alive
     * hop that stays within a dimension still to correct (keeping
     * the minimal hop count; the dimension's complete graph offers
     * alternate two-hop paths around any dead link), else a random
     * alive hop in an already-correct dimension.  @p vc_of maps the
     * picked neighbor router to the hop's VC.
     */
    template <typename VcOf>
    RouteDecision escapeHop(Router &router, Flit &flit, RouterId tgt,
                            VcOf &&vc_of) const;
};

} // namespace fbfly

#endif // FBFLY_ROUTING_FBFLY_BASE_H
