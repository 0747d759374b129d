#include "routing/slim_fly_routing.h"

#include "common/log.h"
#include "network/flit.h"
#include "network/router.h"

namespace fbfly
{

ShortestQueue
SlimFlyRouting::bestMinimal(Router &router, RouterId target) const
{
    const RouterId cur = router.id();
    FBFLY_ASSERT(cur != target, "bestMinimal at the target");
    ShortestQueue best(router);
    if (topo_.adjacent(cur, target)) {
        best.offer(topo_.portToward(cur, target));
        return best;
    }
    // Distance 2: any neighbor adjacent to the target is a productive
    // first hop.
    for (PortId p = topo_.p(); p < topo_.radix(); ++p) {
        if (topo_.adjacent(topo_.neighborAt(cur, p), target))
            best.offer(p);
    }
    return best;
}

RouteDecision
SlimFlyMinimal::route(Router &router, Flit &flit)
{
    const RouterId cur = router.id();
    const RouterId dst = dstRouter(flit);
    if (cur == dst)
        return eject(flit);
    return hopOrEscape(router, flit, bestMinimal(router, dst).port());
}

RouteDecision
SlimFlyUgal::route(Router &router, Flit &flit)
{
    const RouterId cur = router.id();
    const RouterId dst = dstRouter(flit);
    if (cur == dst)
        return eject(flit);

    if (flit.routeMode == kModeUndecided) {
        // The minimal-vs-nonminimal choice, made once at the source
        // router: minimize estimated delay = (queue + 1) x hops,
        // like the flattened-butterfly UGAL.
        const int h_min = topo_.minimalHops(cur, dst);
        const int q_min = bestMinimal(router, dst).queue();

        const auto b = static_cast<RouterId>(
            router.rng().nextBounded(topo_.numRouters()));
        const int h_val =
            topo_.minimalHops(cur, b) + topo_.minimalHops(b, dst);
        const int q_val =
            b != cur ? bestMinimal(router, b).queue() : q_min;

        if (ugalPrefersMinimal(q_min, h_min, q_val, h_val)) {
            flit.routeMode = kModeMinimal;
        } else {
            flit.routeMode = kModeNonminimal;
            flit.intermediate = b;
            flit.phase = 0;
        }
    }

    RouterId target = dst;
    if (flit.routeMode == kModeNonminimal) {
        if (flit.phase == 0 && cur == flit.intermediate)
            flit.phase = 1;
        if (flit.phase == 0)
            target = flit.intermediate;
    }
    return hopOrEscape(router, flit, bestMinimal(router, target).port());
}

} // namespace fbfly
