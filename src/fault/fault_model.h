/**
 * @file
 * Fault model — failed links and routers for degradation studies.
 *
 * The paper's central argument (Section 4) is that the flattened
 * butterfly's path diversity lets adaptive routing balance load around
 * hotspots; the same diversity is what lets a deployed network route
 * around *failures*.  A FaultModel describes which directed
 * inter-router channels (arcs) and routers are failed, and from which
 * cycle, so the simulator can evaluate graceful degradation.
 *
 * Semantics (fail-stop):
 *  - a failed arc refuses new flits from its activation cycle onward;
 *    flits already in flight on the wire are still delivered (the
 *    transmitter fails, not the photons already under way);
 *  - a failed router fails every arc incident to it, in both
 *    directions, plus the injection/ejection channels of its
 *    terminals;
 *  - a FaultModel's faults are permanent — the entity never comes
 *    back for the rest of the run.  The Network applies them as
 *    never-repaired outages on the same schedule as the repairable
 *    ones of fault/churn_model.h (MTBF/MTTR renewal schedules whose
 *    downs are matched by repairs): each failure holds a down-cause
 *    on its arc or router that no repair releases (docs/FAULTS.md,
 *    "Churn and repair");
 *  - everything is deterministic: random fault sets are drawn from the
 *    library's own Rng, so a (topology, seed, count) triple always
 *    produces the same fault set.
 *
 * The model is pure description: the Network applies it (see
 * NetworkConfig::faults), routers expose per-port liveness to routing
 * algorithms, and Network::validate() rejects fault sets that
 * disconnect a terminal before a simulation can hang on them.
 */

#ifndef FBFLY_FAULT_FAULT_MODEL_H
#define FBFLY_FAULT_FAULT_MODEL_H

#include <cstdint>
#include <limits>
#include <vector>

#include "common/types.h"
#include "fault/connectivity.h"
#include "topology/topology.h"

namespace fbfly
{

/**
 * A deterministic set of (time-triggered) link and router failures.
 */
class FaultModel
{
  public:
    /** Activation cycle meaning "never fails". */
    static constexpr Cycle kNever = std::numeric_limits<Cycle>::max();

    /** @param topo topology the faults refer to (must outlive the
     *         model; arc indices follow topo.arcs()). */
    explicit FaultModel(const Topology &topo);

    /** @name Fault injection @{ */

    /** Fail one directed arc (index into Topology::arcs()) at cycle
     *  @p at.  Earlier of repeated calls wins. */
    void failArc(std::size_t arc_index, Cycle at = 0);

    /**
     * Fail the bidirectional link between routers @p a and @p b
     * (every arc a->b and b->a) at cycle @p at.
     *
     * @return number of directed arcs failed (0 if not adjacent).
     */
    int failLinkBetween(RouterId a, RouterId b, Cycle at = 0);

    /** Fail router @p r (and so every arc and terminal channel
     *  incident to it) at cycle @p at. */
    void failRouter(RouterId r, Cycle at = 0);

    /**
     * Fail @p count bidirectional links drawn uniformly at random.
     *
     * Deterministic for a given (topology, seed).  When
     * @p preserve_connectivity is set, candidate links whose failure
     * would disconnect some pair of terminal-hosting routers (given
     * all faults injected so far, evaluated at end-of-time) are
     * skipped, so the resulting network stays routable.
     *
     * **Shortfall contract**: connectivity pruning can exhaust its
     * candidate pool before reaching @p count — on small or sparse
     * topologies (a cut edge can never fail) and at high fractions
     * (once the survivors form a spanning tree, every remaining link
     * is critical).  The draw then stops early and the return value
     * is *less than* @p count.  Callers MUST label results by the
     * returned effective count, never by the requested one — see
     * DegradationPoint::shortfall(), which the degradation harness
     * records for exactly this reason, and tests/test_fault_model.cc
     * (FailRandomLinksShortfall).
     *
     * @return the number of links actually failed (may be < count
     *         when connectivity pruning runs out of candidates).
     */
    int failRandomLinks(int count, std::uint64_t seed, Cycle at = 0,
                        bool preserve_connectivity = true);

    /** @} */

    /** @name Liveness queries @{ */

    /** True when arc @p arc_index accepts new flits at @p cycle
     *  (both endpoint routers alive, arc not failed). */
    bool arcAlive(std::size_t arc_index, Cycle cycle) const;

    /** True when router @p r is alive at @p cycle. */
    bool routerAlive(RouterId r, Cycle cycle) const;

    /**
     * Cycle at which arc @p arc_index stops accepting flits — the
     * earliest of its own failure and its endpoint routers' failures
     * (kNever if none).
     */
    Cycle arcFailCycle(std::size_t arc_index) const;

    /** Cycle at which router @p r fails (kNever if it does not). */
    Cycle routerFailCycle(RouterId r) const
    {
        return routerFail_[static_cast<std::size_t>(r)];
    }

    /** Directed arcs dead at @p cycle. */
    int failedArcCount(Cycle cycle) const;

    /** True when any fault exists (at any activation cycle). */
    bool anyFaults() const;

    /**
     * True when, with every fault active (end-of-time), all
     * terminal-hosting routers are alive and mutually reachable over
     * alive arcs (strong connectivity restricted to what terminals
     * need).
     */
    bool connected() const;

    /** @} */

    std::size_t numArcs() const { return arcs_.size(); }
    const Topology &topology() const { return topo_; }
    const std::vector<Topology::Arc> &arcs() const { return arcs_; }

  private:
    /** connected(), with arcs @p extra_a / @p extra_b (a trial
     *  bidirectional failure; ArcGraph::kNoPair for none) also dead. */
    bool connectedWithout(std::size_t extra_a, std::size_t extra_b) const;

    const Topology &topo_;
    std::vector<Topology::Arc> arcs_;
    std::vector<Cycle> arcFail_;    // per arc, own failure only
    std::vector<Cycle> routerFail_; // per router
    /** Reverse-arc pairing and terminal connectivity. */
    ArcGraph graph_;
};

} // namespace fbfly

#endif // FBFLY_FAULT_FAULT_MODEL_H
