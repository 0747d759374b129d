/**
 * @file
 * ArcGraph — the reverse-arc pairing and terminal-connectivity check
 * shared by FaultModel, ChurnModel and Network::validate(), over
 * adjacency lists built once per topology.
 */

#ifndef FBFLY_FAULT_CONNECTIVITY_H
#define FBFLY_FAULT_CONNECTIVITY_H

#include <cstddef>
#include <limits>
#include <vector>

#include "common/types.h"
#include "topology/topology.h"

namespace fbfly
{

class ArcGraph
{
  public:
    static constexpr std::size_t kNoPair =
        std::numeric_limits<std::size_t>::max();

    /** @param arcs topo.arcs(); read only during construction. */
    ArcGraph(const Topology &topo, const std::vector<Topology::Arc> &arcs);

    /** Reverse partner of every arc (kNoPair when unidirectional):
     *  in index order, each unpaired arc takes the lowest-indexed
     *  unpaired higher arc that runs the other way. */
    const std::vector<std::size_t> &reverseArcs() const { return rev_; }

    bool hostsTerminal(RouterId r) const { return hosts_[r] != 0; }

    /**
     * True when every alive terminal-hosting router reaches every
     * other over alive arcs.  Nonzero @p router_down entries mark down
     * routers (their terminals are left out); an arc is dead when its
     * @p arc_down entry is nonzero or an endpoint is down.
     */
    bool terminalsConnected(const std::vector<int> &arc_down,
                            const std::vector<int> &router_down) const;

  private:
    struct Edge
    {
        std::size_t arc;
        RouterId to;
    };
    /** Per-router out- and in-edges, in ascending arc order. */
    std::vector<std::vector<Edge>> out_, in_;
    std::vector<char> hosts_;
    std::vector<std::size_t> rev_;
};

} // namespace fbfly

#endif // FBFLY_FAULT_CONNECTIVITY_H
