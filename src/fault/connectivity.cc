#include "fault/connectivity.h"

namespace fbfly
{

ArcGraph::ArcGraph(const Topology &topo,
                   const std::vector<Topology::Arc> &arcs)
    : out_(static_cast<std::size_t>(topo.numRouters())),
      in_(out_.size()), hosts_(out_.size(), 0), rev_(arcs.size(), kNoPair)
{
    for (std::size_t i = 0; i < arcs.size(); ++i) {
        out_[arcs[i].src].push_back({i, arcs[i].dst});
        in_[arcs[i].dst].push_back({i, arcs[i].src});
    }
    for (NodeId n = 0; n < topo.numNodes(); ++n) {
        hosts_[topo.injectionRouter(n)] = 1;
        hosts_[topo.ejectionRouter(n)] = 1;
    }
    for (std::size_t i = 0; i < arcs.size(); ++i) {
        if (rev_[i] != kNoPair)
            continue;
        for (const Edge &back : out_[arcs[i].dst]) {
            if (back.arc > i && back.to == arcs[i].src &&
                rev_[back.arc] == kNoPair) {
                rev_[i] = back.arc;
                rev_[back.arc] = i;
                break;
            }
        }
    }
}

bool
ArcGraph::terminalsConnected(const std::vector<int> &arc_down,
                             const std::vector<int> &router_down) const
{
    const auto alive_host = [&](std::size_t r) {
        return hosts_[r] != 0 && router_down[r] == 0;
    };
    std::size_t seed = 0;
    while (seed < hosts_.size() && !alive_host(seed))
        ++seed;
    if (seed == hosts_.size())
        return true; // no alive terminal routers left to split

    // Everything reachable from seed and everything reaching it:
    // strong connectivity, because reachability via seed composes.
    for (const auto *adj : {&out_, &in_}) {
        std::vector<char> seen(hosts_.size(), 0);
        std::vector<std::size_t> frontier{seed};
        seen[seed] = 1;
        while (!frontier.empty()) {
            const std::size_t r = frontier.back();
            frontier.pop_back();
            for (const Edge &e : (*adj)[r]) {
                const auto to = static_cast<std::size_t>(e.to);
                if (arc_down[e.arc] == 0 && router_down[to] == 0 &&
                    seen[to] == 0) {
                    seen[to] = 1;
                    frontier.push_back(to);
                }
            }
        }
        for (std::size_t r = 0; r < hosts_.size(); ++r)
            if (alive_host(r) && seen[r] == 0)
                return false;
    }
    return true;
}

} // namespace fbfly
