#include "routing/dragonfly_routing.h"

#include "common/log.h"
#include "network/flit.h"
#include "network/router.h"

namespace fbfly
{

PortId
DragonflyRouting::minimalPort(RouterId cur, RouterId target) const
{
    FBFLY_ASSERT(cur != target, "minimalPort at the target");
    const int gs = topo_.groupOf(cur);
    const int gd = topo_.groupOf(target);
    if (gs == gd)
        return topo_.localPort(cur, topo_.localOf(target));
    const RouterId gw = topo_.globalRouter(gs, gd);
    if (cur == gw)
        return topo_.globalPort(gs, gd);
    return topo_.localPort(cur, topo_.localOf(gw));
}

RouteDecision
DragonflyMinimal::route(Router &router, Flit &flit)
{
    const RouterId cur = router.id();
    const RouterId dst = dstRouter(flit);
    if (cur == dst)
        return eject(flit);
    return hopOrEscape(router, flit, minimalPort(cur, dst));
}

RouteDecision
DragonflyUgal::route(Router &router, Flit &flit)
{
    const RouterId cur = router.id();
    const RouterId dst = dstRouter(flit);
    if (cur == dst)
        return eject(flit);

    if (flit.routeMode == kModeUndecided) {
        // The minimal-vs-nonminimal choice, made once at the source
        // router: minimize estimated delay = (queue + 1) x hops,
        // like the flattened-butterfly UGAL.
        const int gs = topo_.groupOf(cur);
        const int gd = topo_.groupOf(dst);
        if (gs == gd) {
            flit.routeMode = kModeMinimal;
        } else {
            const int h_min = topo_.minimalHops(cur, dst);
            const int q_min =
                firstHopQueue(router, minimalPort(cur, dst));

            // A random intermediate group != the source group; a
            // draw of the destination group degenerates to minimal.
            const int gi =
                (gs + 1 +
                 static_cast<int>(
                     router.rng().nextBounded(topo_.g() - 1))) %
                topo_.g();
            int h_val = h_min;
            int q_val = q_min;
            if (gi != gd) {
                const RouterId entry = topo_.globalRouter(gi, gs);
                const RouterId gw = topo_.globalRouter(gs, gi);
                h_val = (cur == gw ? 1 : 2) +
                        topo_.minimalHops(entry, dst);
                q_val = firstHopQueue(router, minimalPort(cur, entry));
            }

            if (ugalPrefersMinimal(q_min, h_min, q_val, h_val)) {
                flit.routeMode = kModeMinimal;
            } else {
                flit.routeMode = kModeNonminimal;
                flit.intermediate = gi;
                flit.phase = 0;
            }
        }
    }

    RouterId target = dst;
    if (flit.routeMode == kModeNonminimal) {
        if (flit.phase == 0 &&
            topo_.groupOf(cur) == flit.intermediate)
            flit.phase = 1;
        if (flit.phase == 0) {
            // Toward the intermediate group's entry router (the far
            // end of the current group's global channel to it).
            target = topo_.globalRouter(flit.intermediate,
                                        topo_.groupOf(cur));
        }
    }
    return hopOrEscape(router, flit, minimalPort(cur, target));
}

} // namespace fbfly
