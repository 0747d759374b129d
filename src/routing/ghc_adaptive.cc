#include "routing/ghc_adaptive.h"

#include <algorithm>

#include "common/log.h"
#include "network/flit.h"
#include "network/router.h"
#include "routing/port_choice.h"

namespace fbfly
{

GhcAdaptive::GhcAdaptive(const GeneralizedHypercube &topo)
    : topo_(topo)
{
}

RouteDecision
GhcAdaptive::route(Router &router, Flit &flit)
{
    const RouterId r = router.id();
    const RouterId dst = flit.dst; // one terminal per router

    ShortestQueue best(router);
    int remaining = 0;
    for (int d = 0; d < topo_.numDims(); ++d) {
        const int want = topo_.routerDigit(dst, d);
        if (topo_.routerDigit(r, d) == want)
            continue;
        ++remaining;
        best.offer(topo_.portToward(r, d, want));
    }
    if (remaining == 0)
        return {0, 0}; // terminal port
    if (best.port() != kInvalid) {
        // Hops-remaining VC indexing keeps the adaptive order
        // deadlock-free.
        return {best.port(), remaining - 1};
    }

    // Every productive channel has failed: budgeted escape, as in
    // FbflyRouting::escapeHop.  Pass 1 detours within a differing
    // dimension (hop count preserved); pass 2 steps sideways in a
    // correct dimension (one extra hop).  VCs stay clamped to the
    // hops-remaining set.
    bool pickDiffering = false;
    const auto offer = [&](RandomAlive &pick) {
        for (const bool differing : {true, false}) {
            for (int d = 0; d < topo_.numDims(); ++d) {
                const int own = topo_.routerDigit(r, d);
                const int want = topo_.routerDigit(dst, d);
                if ((own != want) != differing)
                    continue;
                for (int v = 0; v < topo_.radixOf(d); ++v) {
                    if (v == own || (differing && v == want))
                        continue;
                    if (pick.offer(topo_.portToward(r, d, v)))
                        pickDiffering = differing;
                }
            }
            if (pick.port() != kInvalid)
                break;
        }
    };
    return escapeRoute(router, flit, topo_.numDims(), offer, [&] {
        const int after = pickDiffering ? remaining : remaining + 1;
        return std::min(after, topo_.numDims()) - 1;
    });
}

} // namespace fbfly
