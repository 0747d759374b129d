#include "routing/ugal.h"

#include "network/flit.h"
#include "network/router.h"

namespace fbfly
{

Ugal::Ugal(const FlattenedButterfly &topo, bool sequential_alloc)
    : FbflyRouting(topo), seq_(sequential_alloc)
{
}

RouteDecision
Ugal::route(Router &router, Flit &flit)
{
    const RouterId cur = router.id();
    const RouterId dst = dstRouter(flit);
    const int np = topo_.numDims();

    if (flit.routeMode == kModeUndecided) {
        // The minimal-vs-nonminimal choice, made once at the source
        // router: minimize estimated delay = queue length x hops.
        if (cur == dst) {
            flit.routeMode = kModeMinimal;
        } else {
            // A dead first hop is priced at kDeadQueue, so the
            // alternative wins unless it is equally dead (then
            // minimalHop's escape takes over anyway).
            const int h_min = topo_.minimalHops(cur, dst);
            const int q_min = bestProductive(router, dst).queue();

            const auto b = static_cast<RouterId>(
                router.rng().nextBounded(topo_.numRouters()));
            const int h_val =
                topo_.minimalHops(cur, b) + topo_.minimalHops(b, dst);
            const int q_val =
                b != cur ? firstHopQueue(router, dorPort(cur, b)) : q_min;

            if (ugalPrefersMinimal(q_min, h_min, q_val, h_val)) {
                flit.routeMode = kModeMinimal;
            } else {
                flit.routeMode = kModeNonminimal;
                flit.intermediate = b;
                flit.phase = 0;
            }
        }
    }

    if (flit.routeMode == kModeMinimal) {
        // Route like MIN AD on the phase-1 VC set.
        return minimalHop(router, flit, np);
    }

    // Non-minimal: Valiant through the recorded intermediate, with
    // fault-aware dimension-order subroutes and hops-remaining VC
    // indexing (fixed_vc < 0).
    if (flit.phase == 0) {
        if (cur != flit.intermediate)
            return dorHopAlive(router, flit, flit.intermediate, 0,
                               /*fixed_vc=*/-1);
        flit.phase = 1;
    }
    if (cur == dst)
        return eject(flit);
    return dorHopAlive(router, flit, dst, np, /*fixed_vc=*/-1);
}

} // namespace fbfly
