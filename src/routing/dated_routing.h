/**
 * @file
 * Shared base of the VC-dated routing families (dragonfly, Slim Fly).
 *
 * The VC index equals the number of inter-router hops already taken,
 * so every channel dependency steps to a strictly higher VC and the
 * channel-dependency graph is acyclic (layered by date).  When every
 * productive channel has failed, a packet escapes on a random alive
 * inter-router port (port_choice.h) with its date clamped to the top
 * VC; monotonicity no longer holds there, so faulty runs rely on the
 * watchdog (docs/FAULTS.md).
 *
 * @tparam Topo a topology with injectionRouter(), ejectionPort(),
 *         p() (terminal ports come first) and radix().
 */

#ifndef FBFLY_ROUTING_DATED_ROUTING_H
#define FBFLY_ROUTING_DATED_ROUTING_H

#include <algorithm>

#include "routing/port_choice.h"

namespace fbfly
{

template <class Topo>
class DatedRouting : public RoutingAlgorithm
{
  protected:
    /** @param diameter the longest minimal route, in hops. */
    DatedRouting(const Topo &topo, int diameter)
        : topo_(topo), diameter_(diameter)
    {
    }

    RouterId dstRouter(const Flit &flit) const
    {
        return topo_.injectionRouter(flit.dst);
    }

    /** Eject at the destination router (terminal port, VC 0). */
    RouteDecision eject(const Flit &flit) const
    {
        return {topo_.ejectionPort(flit.dst), 0};
    }

    /** VC date: inter-router hops taken so far, clamped to the VC
     *  range (the clamp only engages on fault escapes). */
    VcId dateVc(const Flit &flit) const
    {
        return std::min(flit.hops, numVcs() - 1);
    }

    /** The hop on productive port @p port when it is alive, else
     *  (dead, or kInvalid for none) a budgeted escape on any alive
     *  inter-router port. */
    RouteDecision hopOrEscape(Router &router, Flit &flit,
                              PortId port) const
    {
        if (port != kInvalid && router.outputAlive(port))
            return {port, dateVc(flit)};
        const auto offer = [&](RandomAlive &pick) {
            for (PortId p = topo_.p(); p < topo_.radix(); ++p)
                pick.offer(p);
        };
        return escapeRoute(router, flit, diameter_, offer,
                           [&] { return dateVc(flit); });
    }

    const Topo &topo_;

  private:
    int diameter_;
};

} // namespace fbfly

#endif // FBFLY_ROUTING_DATED_ROUTING_H
