#include "routing/clos_ad.h"

#include "network/flit.h"
#include "network/router.h"

namespace fbfly
{

ClosAd::ClosAd(const FlattenedButterfly &topo) : FbflyRouting(topo)
{
}

RouteDecision
ClosAd::route(Router &router, Flit &flit)
{
    const RouterId cur = router.id();
    const RouterId dst = dstRouter(flit);
    const int np = topo_.numDims();
    const int k = topo_.k();

    if (cur == dst)
        return eject(flit);

    if (flit.routeMode == kModeUndecided) {
        // Source decision, made "like UGAL" (paper): compare the
        // minimal delay estimate against one randomly sampled
        // misrouting candidate within the common-ancestor
        // dimensions.  Sampling (rather than taking the best of all
        // k-2 alternatives) keeps the comparison unbiased, so benign
        // traffic stays minimal; the adaptive choice of the actual
        // intermediate happens in the ascent below.
        const int diff = topo_.minimalHops(cur, dst);
        const int h = topo_.highestDiffDim(cur, dst);
        const int q_min = bestProductive(router, dst).queue();

        bool minimal = true;
        const int d = 1 + static_cast<int>(router.rng().nextBounded(h));
        const int mine = topo_.routerDigit(cur, d);
        const int want = topo_.routerDigit(dst, d);
        int m = static_cast<int>(router.rng().nextBounded(k - 1));
        if (m >= mine)
            ++m;
        if (m != want || mine == want) {
            // Misrouting in a differing dimension adds one hop; in an
            // already-correct dimension it adds two.
            const int hops =
                diff + (m == want ? 0 : (mine != want ? 1 : 2));
            minimal = ugalPrefersMinimal(
                q_min, diff,
                firstHopQueue(router, topo_.portToward(cur, d, m)),
                hops);
        }

        if (minimal) {
            flit.routeMode = kModeMinimal;
        } else {
            flit.routeMode = kModeNonminimal;
            flit.phase = 0;
            flit.ascendDim = 1;
            flit.ancestorDim = static_cast<std::int8_t>(h);
        }
    }

    if (flit.routeMode == kModeMinimal)
        return minimalHop(router, flit, np);

    if (flit.phase == 0) {
        // Ascend: per dimension, shortest queue among the k-1 real
        // channels and the dummy (stay) whose cost is the descending
        // channel this dimension will need later.  Misroute only on a
        // strict improvement so benign traffic stays minimal.
        while (flit.ascendDim <= flit.ancestorDim) {
            const int d = flit.ascendDim;
            const int mine = topo_.routerDigit(cur, d);
            const int want = topo_.routerDigit(dst, d);
            const int stay_cost =
                mine == want
                    ? 0
                    : firstHopQueue(router,
                                    topo_.portToward(cur, d, want));

            ShortestQueue best(router);
            for (int m = 0; m < k; ++m) {
                if (m != mine)
                    best.offer(topo_.portToward(cur, d, m));
            }

            flit.ascendDim = static_cast<std::int8_t>(d + 1);
            if (best.port() != kInvalid && best.queue() < stay_cost)
                return {best.port(), d - 1};
            // else: stay at this coordinate; consider the next
            // dimension without taking a hop.
        }
        flit.phase = 1;
    }

    // Descend: minimal adaptive on the phase-1 VC set.
    return minimalHop(router, flit, np);
}

} // namespace fbfly
