/**
 * @file
 * Dragonfly routing: minimal and UGAL-style adaptive, with the
 * VC-dated deadlock-avoidance scheme used across this repo — the VC
 * index equals the number of inter-router hops already taken, so
 * every channel dependency steps to a strictly higher VC and the
 * channel-dependency graph is acyclic (layered by date).
 *
 * Minimal routes are unique in this wiring (one global channel per
 * group pair, fixed gateway router): local -> global -> local, at
 * most 3 inter-router hops, so MIN needs 3 VCs.  UGAL picks, per
 * packet at the source router, between the minimal route and a
 * Valiant detour through a random intermediate *group* (at most
 * 2 + 3 = 5 hops, 5 VCs), comparing estimated delay = (queue + 1) x
 * hops like the flattened-butterfly UGAL (routing/ugal.cc).
 *
 * A dead productive channel is escaped as in every VC-dated family
 * (routing/dated_routing.h).
 */

#ifndef FBFLY_ROUTING_DRAGONFLY_ROUTING_H
#define FBFLY_ROUTING_DRAGONFLY_ROUTING_H

#include "routing/dated_routing.h"
#include "topology/dragonfly.h"

namespace fbfly
{

/** Shared machinery of the dragonfly algorithms. */
class DragonflyRouting : public DatedRouting<Dragonfly>
{
  protected:
    explicit DragonflyRouting(const Dragonfly &topo)
        : DatedRouting(topo, 3)
    {
    }

    /** The unique minimal port from @p cur toward router @p target
     *  (which must differ from @p cur). */
    PortId minimalPort(RouterId cur, RouterId target) const;
};

/**
 * Deterministic minimal dragonfly routing (3 VCs).
 */
class DragonflyMinimal final : public DragonflyRouting
{
  public:
    explicit DragonflyMinimal(const Dragonfly &topo)
        : DragonflyRouting(topo)
    {
    }

    std::string name() const override { return "DF MIN"; }
    int numVcs() const override { return 3; }
    RouteDecision route(Router &router, Flit &flit) override;
    bool preservesFlowOrder() const override { return true; }
};

/**
 * UGAL-style adaptive dragonfly routing (5 VCs): minimal vs Valiant
 * through a random intermediate group, chosen once at the source by
 * comparing estimated delays.
 */
class DragonflyUgal final : public DragonflyRouting
{
  public:
    explicit DragonflyUgal(const Dragonfly &topo)
        : DragonflyRouting(topo)
    {
    }

    std::string name() const override { return "DF UGAL"; }
    int numVcs() const override { return 5; }
    RouteDecision route(Router &router, Flit &flit) override;
};

} // namespace fbfly

#endif // FBFLY_ROUTING_DRAGONFLY_ROUTING_H
