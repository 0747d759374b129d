#include "routing/folded_clos_adaptive.h"

#include "network/flit.h"
#include "network/router.h"
#include "routing/port_choice.h"

namespace fbfly
{

FoldedClosAdaptive::FoldedClosAdaptive(const FoldedClos &topo)
    : topo_(topo)
{
}

RouteDecision
FoldedClosAdaptive::route(Router &router, Flit &flit)
{
    const RouterId r = router.id();
    const RouterId dst_leaf = topo_.leafOf(flit.dst);

    if (!topo_.isLeaf(r)) {
        // Middle stage: one deterministic down channel per leaf.
        return {topo_.downPort(dst_leaf), 0};
    }
    if (r == dst_leaf) {
        // Local (or descending) traffic: eject.
        return {topo_.ejectionPort(flit.dst), 0};
    }

    // Ascend on the least-occupied alive uplink (sequential
    // allocator); drop when every uplink has failed.
    ShortestQueue best(router);
    for (int i = 0; i < topo_.u(); ++i)
        best.offer(topo_.uplinkPort(i));
    if (best.port() == kInvalid)
        return RouteDecision::dropped();
    return {best.port(), 0};
}

} // namespace fbfly
