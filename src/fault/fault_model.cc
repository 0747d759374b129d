#include "fault/fault_model.h"

#include <algorithm>
#include <numeric>

#include "common/log.h"
#include "common/rng.h"

namespace fbfly
{

FaultModel::FaultModel(const Topology &topo)
    : topo_(topo), arcs_(topo.arcs()), graph_(topo, arcs_)
{
    arcFail_.assign(arcs_.size(), kNever);
    routerFail_.assign(static_cast<std::size_t>(topo.numRouters()),
                       kNever);
}

void
FaultModel::failArc(std::size_t arc_index, Cycle at)
{
    FBFLY_ASSERT(arc_index < arcs_.size(),
                 "failArc index ", arc_index, " out of range (",
                 arcs_.size(), " arcs)");
    arcFail_[arc_index] = std::min(arcFail_[arc_index], at);
}

int
FaultModel::failLinkBetween(RouterId a, RouterId b, Cycle at)
{
    int failed = 0;
    for (std::size_t i = 0; i < arcs_.size(); ++i) {
        if ((arcs_[i].src == a && arcs_[i].dst == b) ||
            (arcs_[i].src == b && arcs_[i].dst == a)) {
            failArc(i, at);
            ++failed;
        }
    }
    return failed;
}

void
FaultModel::failRouter(RouterId r, Cycle at)
{
    FBFLY_ASSERT(r >= 0 &&
                 static_cast<std::size_t>(r) < routerFail_.size(),
                 "failRouter id ", r, " out of range");
    routerFail_[r] = std::min(routerFail_[r], at);
}

int
FaultModel::failRandomLinks(int count, std::uint64_t seed, Cycle at,
                            bool preserve_connectivity)
{
    // Candidate pool: one representative arc per bidirectional link
    // (the lower-indexed arc of each pair; unpaired arcs stand for
    // themselves), not already failed.
    std::vector<std::size_t> pool;
    for (std::size_t i = 0; i < arcs_.size(); ++i) {
        if (graph_.reverseArcs()[i] < i)
            continue; // the pair is represented by the lower index
        if (arcFail_[i] != kNever)
            continue;
        pool.push_back(i);
    }

    // Fisher-Yates shuffle with the library Rng: deterministic for a
    // given (topology, seed).
    Rng rng(seed);
    for (std::size_t i = pool.size(); i > 1; --i)
        std::swap(pool[i - 1], pool[rng.nextBounded(i)]);

    int failed = 0;
    for (const std::size_t i : pool) {
        if (failed >= count)
            break;
        const std::size_t rev = graph_.reverseArcs()[i];
        if (preserve_connectivity && !connectedWithout(i, rev))
            continue; // this link is currently a cut edge; skip it
        failArc(i, at);
        if (rev != ArcGraph::kNoPair)
            failArc(rev, at);
        ++failed;
    }
    return failed;
}

Cycle
FaultModel::arcFailCycle(std::size_t arc_index) const
{
    FBFLY_ASSERT(arc_index < arcs_.size(), "arcFailCycle range");
    const Topology::Arc &a = arcs_[arc_index];
    Cycle c = arcFail_[arc_index];
    c = std::min(c, routerFail_[static_cast<std::size_t>(a.src)]);
    c = std::min(c, routerFail_[static_cast<std::size_t>(a.dst)]);
    return c;
}

bool
FaultModel::arcAlive(std::size_t arc_index, Cycle cycle) const
{
    return cycle < arcFailCycle(arc_index);
}

bool
FaultModel::routerAlive(RouterId r, Cycle cycle) const
{
    FBFLY_ASSERT(r >= 0 &&
                 static_cast<std::size_t>(r) < routerFail_.size(),
                 "routerAlive id range");
    return cycle < routerFail_[r];
}

int
FaultModel::failedArcCount(Cycle cycle) const
{
    int n = 0;
    for (std::size_t i = 0; i < arcs_.size(); ++i)
        n += arcAlive(i, cycle) ? 0 : 1;
    return n;
}

bool
FaultModel::anyFaults() const
{
    for (const Cycle c : arcFail_)
        if (c != kNever)
            return true;
    for (const Cycle c : routerFail_)
        if (c != kNever)
            return true;
    return false;
}

bool
FaultModel::connected() const
{
    return connectedWithout(ArcGraph::kNoPair, ArcGraph::kNoPair);
}

bool
FaultModel::connectedWithout(std::size_t extra_a,
                             std::size_t extra_b) const
{
    std::vector<int> arcDown(arcs_.size());
    for (std::size_t i = 0; i < arcs_.size(); ++i)
        arcDown[i] = i == extra_a || i == extra_b || arcFail_[i] != kNever;
    // All terminal-hosting routers must themselves be alive.
    std::vector<int> routerDown(routerFail_.size());
    for (RouterId r = 0; r < topo_.numRouters(); ++r) {
        routerDown[r] = routerFail_[r] != kNever;
        if (routerDown[r] != 0 && graph_.hostsTerminal(r))
            return false;
    }
    return graph_.terminalsConnected(arcDown, routerDown);
}

} // namespace fbfly
