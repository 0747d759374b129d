#include "routing/fbfly_base.h"

#include <algorithm>

#include "common/log.h"
#include "network/flit.h"
#include "network/router.h"

namespace fbfly
{

FbflyRouting::FbflyRouting(const FlattenedButterfly &topo)
    : topo_(topo)
{
}

RouterId
FbflyRouting::dstRouter(const Flit &flit) const
{
    return topo_.routerOf(flit.dst);
}

RouteDecision
FbflyRouting::eject(const Flit &flit) const
{
    return {topo_.terminalPort(flit.dst), 0};
}

int
FbflyRouting::lowestDiffDim(RouterId cur, RouterId tgt) const
{
    for (int d = 1; d <= topo_.numDims(); ++d) {
        if (topo_.routerDigit(cur, d) != topo_.routerDigit(tgt, d))
            return d;
    }
    return 0;
}

PortId
FbflyRouting::dorPort(RouterId cur, RouterId tgt) const
{
    const int d = lowestDiffDim(cur, tgt);
    FBFLY_ASSERT(d >= 1, "dorPort with cur == tgt");
    return topo_.portToward(cur, d, topo_.routerDigit(tgt, d));
}

template <typename VcOf>
RouteDecision
FbflyRouting::escapeHop(Router &router, Flit &flit, RouterId tgt,
                        VcOf &&vc_of) const
{
    const RouterId cur = router.id();
    RouterId nbr = kInvalid;
    const auto offer = [&](RandomAlive &pick) {
        // Pass 1: detour within a dimension the packet still has to
        // correct (keeps the minimal hop count).  Pass 2: step
        // sideways in an already-correct dimension (one extra hop).
        for (const bool differing : {true, false}) {
            for (int d = 1; d <= topo_.numDims(); ++d) {
                const int own = topo_.routerDigit(cur, d);
                const int want = topo_.routerDigit(tgt, d);
                if ((own != want) != differing)
                    continue;
                for (int v = 0; v < topo_.k(); ++v) {
                    if (v == own || (differing && v == want))
                        continue; // self / the (dead) productive port
                    if (pick.offer(topo_.portToward(cur, d, v)))
                        nbr = topo_.neighbor(cur, d, v);
                }
            }
            if (pick.port() != kInvalid)
                break;
        }
    };
    return escapeRoute(router, flit, topo_.numDims(), offer,
                       [&] { return vc_of(nbr); });
}

ShortestQueue
FbflyRouting::bestProductive(Router &router, RouterId dst_router) const
{
    const RouterId cur = router.id();
    ShortestQueue best(router);
    for (int d = 1; d <= topo_.numDims(); ++d) {
        const int dst_dig = topo_.routerDigit(dst_router, d);
        if (topo_.routerDigit(cur, d) != dst_dig)
            best.offer(topo_.portToward(cur, d, dst_dig));
    }
    return best;
}

RouteDecision
FbflyRouting::minimalHop(Router &router, Flit &flit,
                         int vc_offset) const
{
    const RouterId cur = router.id();
    const RouterId dst = dstRouter(flit);
    if (cur == dst)
        return eject(flit);
    const int diff = topo_.minimalHops(cur, dst);
    const PortId p = bestProductive(router, dst).port();
    if (p != kInvalid)
        return {p, vc_offset + diff - 1};
    // Hops-remaining VC indexing, clamped into this phase's VC set;
    // a detour keeps diff constant, a sideways step raises it.
    const VcId vc = vc_offset + std::min(diff, topo_.numDims()) - 1;
    return escapeHop(router, flit, dst, [vc](RouterId) { return vc; });
}

RouteDecision
FbflyRouting::dorHopAlive(Router &router, Flit &flit, RouterId tgt,
                          int vc_offset, VcId fixed_vc) const
{
    const RouterId cur = router.id();
    const int np = topo_.numDims();
    FBFLY_ASSERT(cur != tgt, "dorHopAlive with cur == tgt");

    const auto vcFor = [&](RouterId nbr) -> VcId {
        if (fixed_vc >= 0)
            return fixed_vc;
        const int after = topo_.minimalHops(nbr, tgt);
        return vc_offset + std::min(after, np - 1);
    };

    // The plain dimension-order hop, when its channel is alive.
    const int d0 = lowestDiffDim(cur, tgt);
    const int want0 = topo_.routerDigit(tgt, d0);
    const PortId direct = topo_.portToward(cur, d0, want0);
    if (router.outputAlive(direct))
        return {direct, vcFor(topo_.neighbor(cur, d0, want0))};

    // Productive hop in another differing dimension (still minimal,
    // merely out of dimension order).
    for (int d = d0 + 1; d <= np; ++d) {
        const int want = topo_.routerDigit(tgt, d);
        if (topo_.routerDigit(cur, d) == want)
            continue;
        const PortId p = topo_.portToward(cur, d, want);
        if (router.outputAlive(p))
            return {p, vcFor(topo_.neighbor(cur, d, want))};
    }

    // Non-minimal escape (budgeted) around the failure.
    return escapeHop(router, flit, tgt, vcFor);
}

} // namespace fbfly
