#include "routing/fat_tree_adaptive.h"

#include "common/log.h"
#include "network/flit.h"
#include "network/router.h"
#include "routing/port_choice.h"

namespace fbfly
{

FatTreeAdaptive::FatTreeAdaptive(const FatTree &topo) : topo_(topo)
{
}

RouteDecision
FatTreeAdaptive::bestPort(Router &router, PortId base, int count) const
{
    ShortestQueue best(router);
    for (int i = 0; i < count; ++i)
        best.offer(base + i);
    if (best.port() == kInvalid)
        return RouteDecision::dropped(); // every candidate failed
    return {best.port(), 0};
}

RouteDecision
FatTreeAdaptive::route(Router &router, Flit &flit)
{
    const RouterId r = router.id();
    const RouterId dst_leaf = topo_.leafOf(flit.dst);
    const int dst_pod = topo_.podOfLeaf(dst_leaf);
    const int dst_leaf_in_pod = dst_leaf % topo_.p();

    switch (topo_.levelOf(r)) {
      case FatTree::Level::Leaf:
        if (r == dst_leaf)
            return {topo_.ejectionPort(flit.dst), 0};
        // Ascend: any pod middle reaches the whole pod; if the
        // destination is outside the pod, any middle also reaches
        // the tops.  Pick the least-occupied uplink.
        return bestPort(router, topo_.leafUplinkPort(0), topo_.u1());

      case FatTree::Level::Middle:
        if (topo_.podOfMiddle(r) == dst_pod) {
            // Turn around (or descend) within the pod.
            return {topo_.middleDownPort(dst_leaf_in_pod), 0};
        }
        // Ascend to a top router, least-occupied uplink.
        return bestPort(router, topo_.middleUplinkPort(0), topo_.u2());

      case FatTree::Level::Top:
        // Descend: any middle of the destination pod works; pick the
        // least-occupied down channel into that pod.
        return bestPort(router, topo_.topDownPort(dst_pod, 0),
                        topo_.u1());
    }
    FBFLY_PANIC("unreachable fat-tree level");
}

} // namespace fbfly
