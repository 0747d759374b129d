/**
 * @file
 * Adaptive (sequential) routing in a three-level folded Clos, the
 * natural extension of the SC'06 adaptive-Clos routing to the
 * paper's 3-stage configurations.
 *
 * Ascending hops (leaf->middle, middle->top) adaptively pick the
 * least-occupied uplink with a sequential allocator; the descent is
 * determined once the common-ancestor level is reached.  Traffic
 * turns around at the lowest common ancestor: same leaf -> eject,
 * same pod -> turn at a pod middle, otherwise through a top router.
 * Up-then-down ordering keeps a single VC deadlock-free.
 */

#ifndef FBFLY_ROUTING_FAT_TREE_ADAPTIVE_H
#define FBFLY_ROUTING_FAT_TREE_ADAPTIVE_H

#include "routing/routing.h"
#include "topology/fat_tree.h"

namespace fbfly
{

/**
 * Adaptive-up / deterministic-down fat-tree routing.
 */
class FatTreeAdaptive final : public RoutingAlgorithm
{
  public:
    explicit FatTreeAdaptive(const FatTree &topo);

    std::string name() const override
    {
        return "adaptive sequential (3-level)";
    }
    int numVcs() const override { return 1; }
    bool sequential() const override { return true; }
    RouteDecision route(Router &router, Flit &flit) override;

  private:
    /** Hop on the least-occupied alive port in [base, base+count),
     *  random ties (VC 0); a drop when every one has failed. */
    RouteDecision bestPort(Router &router, PortId base,
                           int count) const;

    const FatTree &topo_;
};

} // namespace fbfly

#endif // FBFLY_ROUTING_FAT_TREE_ADAPTIVE_H
