/**
 * @file
 * Slim Fly routing: minimal adaptive and UGAL-style adaptive, with
 * the VC-dated deadlock-avoidance scheme — the VC index equals the
 * number of inter-router hops already taken, so every channel
 * dependency steps to a strictly higher VC and the channel-dependency
 * graph is acyclic.
 *
 * The MMS graph has diameter 2, and a non-adjacent router pair
 * usually has several common neighbors: minimal routing is adaptive
 * among them (shortest estimated queue, random tie-break), needing
 * just 2 VCs.  UGAL adds a per-packet choice at the source between
 * the minimal route and a Valiant detour through a random
 * intermediate router (at most 2 + 2 = 4 hops, 4 VCs), comparing
 * estimated delay = (queue + 1) x hops like the flattened-butterfly
 * UGAL (routing/ugal.cc).
 *
 * Dead channels are masked from the candidate sets; when every
 * productive channel is dead the packet escapes as in every VC-dated
 * family (routing/dated_routing.h).
 */

#ifndef FBFLY_ROUTING_SLIM_FLY_ROUTING_H
#define FBFLY_ROUTING_SLIM_FLY_ROUTING_H

#include "routing/dated_routing.h"
#include "topology/slim_fly.h"

namespace fbfly
{

/** Shared machinery of the Slim Fly algorithms. */
class SlimFlyRouting : public DatedRouting<SlimFly>
{
  protected:
    explicit SlimFlyRouting(const SlimFly &topo)
        : DatedRouting(topo, 2)
    {
    }

    /** Best alive productive port toward @p target: the direct
     *  channel when adjacent, else the shortest-queue common
     *  neighbor (random tie-break); kInvalid when every productive
     *  channel is dead. */
    ShortestQueue bestMinimal(Router &router, RouterId target) const;
};

/**
 * Minimal adaptive Slim Fly routing (2 VCs).
 */
class SlimFlyMinimal final : public SlimFlyRouting
{
  public:
    explicit SlimFlyMinimal(const SlimFly &topo)
        : SlimFlyRouting(topo)
    {
    }

    std::string name() const override { return "SF MIN"; }
    int numVcs() const override { return 2; }
    RouteDecision route(Router &router, Flit &flit) override;
};

/**
 * UGAL-style adaptive Slim Fly routing (4 VCs): minimal vs Valiant
 * through a random intermediate router, chosen once at the source by
 * comparing estimated delays.
 */
class SlimFlyUgal final : public SlimFlyRouting
{
  public:
    explicit SlimFlyUgal(const SlimFly &topo) : SlimFlyRouting(topo)
    {
    }

    std::string name() const override { return "SF UGAL"; }
    int numVcs() const override { return 4; }
    RouteDecision route(Router &router, Flit &flit) override;
};

} // namespace fbfly

#endif // FBFLY_ROUTING_SLIM_FLY_ROUTING_H
