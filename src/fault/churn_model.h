/**
 * @file
 * Churn model — link/router failure *and repair* renewal processes.
 *
 * The fail-stop FaultModel (fault_model.h) describes faults that
 * never heal; real fabrics instead run for months under continuous
 * component churn: a link fails, a technician reseats the cable, the
 * link comes back.  A ChurnModel describes that service lifetime as
 * per-entity alternating renewal processes — each bidirectional link
 * and each router draws exponential up-times (mean MTBF) and repair
 * times (mean MTTR) from its own private RNG stream — and expands
 * them into one deterministic, time-sorted schedule of down/up
 * ServiceEvents that the Network applies while it steps.
 *
 * Determinism contract (same as ErrorModel): every entity's draws
 * come from a stream derived only from (model seed, entity kind,
 * entity index), never from shared state or event order, so a
 * (topology, config) pair reproduces the identical schedule — and a
 * churn sweep is bit-identical at any `--threads N`.
 *
 * Repair pairing: every down event carries a matching up event, even
 * when the repair lands past the horizon — an outage is never left
 * open, so a run can always drain to quiescence after its service
 * window ends.
 *
 * The Network merges this schedule with a FaultModel's permanent
 * failures into one outage schedule and applies both with the same
 * per-arc/per-router down-cause counts; a permanent failure is a
 * down whose cause is never released (docs/FAULTS.md, "Overlap
 * accounting").
 *
 * Connectivity pruning (preserveConnectivity): walking the schedule
 * in time order with the current down-set, any outage that would
 * disconnect two alive terminal-hosting routers is cancelled (both
 * its down and up events).  A down router's own terminals do not
 * count — they are unreachable by design (fail-stop semantics;
 * routing drops their traffic and the drops are accounted) — so a
 * router outage is cancelled only when it splits the *remaining*
 * alive terminal routers from each other.  Pruning sees this model's
 * episodes only; churn combined with permanent faults is checked by
 * Network::validate(), which walks the merged schedule.
 */

#ifndef FBFLY_FAULT_CHURN_MODEL_H
#define FBFLY_FAULT_CHURN_MODEL_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"
#include "fault/connectivity.h"
#include "topology/topology.h"

namespace fbfly
{

/**
 * Alternating-renewal churn configuration.  A zero MTBF disables
 * churn for that entity kind.
 */
struct ChurnConfig
{
    /** Mean cycles between failures per bidirectional link
     *  (0: links never fail). */
    double linkMtbf = 0.0;
    /** Mean repair time per link outage, cycles. */
    double linkMttr = 0.0;
    /** Mean cycles between failures per router (0: routers never
     *  fail). */
    double routerMtbf = 0.0;
    /** Mean repair time per router outage, cycles. */
    double routerMttr = 0.0;
    /** Failures are drawn in [0, horizon); repairs may land past it
     *  (every outage always heals). */
    Cycle horizon = 0;
    /** Seed of the per-entity renewal streams (independent of the
     *  simulation seed). */
    std::uint64_t seed = 1;
    /** Cancel outages that would disconnect alive terminal-hosting
     *  routers from each other (see file comment). */
    bool preserveConnectivity = true;
};

/**
 * One scheduled service transition.
 */
struct ServiceEvent
{
    enum class Kind : std::uint8_t
    {
        kLinkDown,
        kLinkUp,
        kRouterDown,
        kRouterUp,
    };

    Cycle at = 0;
    Kind kind = Kind::kLinkDown;
    /** Representative arc index of the link (the lower-indexed arc
     *  of a reverse pair; see reverseArc()).  Valid for link events. */
    std::size_t link = 0;
    /** Valid for router events. */
    RouterId router = kInvalid;
    /** Outage id pairing each down event with its up event. */
    std::size_t episode = 0;

    bool isDown() const
    {
        return kind == Kind::kLinkDown || kind == Kind::kRouterDown;
    }
};

/**
 * Deterministic link/router churn schedule over a topology.
 */
class ChurnModel
{
  public:
    static constexpr std::size_t kNoPair = ArcGraph::kNoPair;

    /** @param topo topology the events refer to (must outlive the
     *         model; arc indices follow topo.arcs()). */
    explicit ChurnModel(const Topology &topo,
                        const ChurnConfig &cfg = {});

    /** The full schedule, sorted by cycle (ties broken by episode
     *  id, ups before downs). */
    const std::vector<ServiceEvent> &events() const
    {
        return events_;
    }

    /** Paired reverse arc of @p arc_index (kNoPair when the arc is
     *  unidirectional). */
    std::size_t reverseArc(std::size_t arc_index) const
    {
        return reverseArc_[arc_index];
    }

    /** Outages in the schedule (down events, links + routers). */
    std::uint64_t downEvents() const { return downEvents_; }

    /** Outages cancelled by connectivity pruning. */
    std::uint64_t prunedEpisodes() const { return pruned_; }

    /** True when the schedule contains any event. */
    bool anyChurn() const { return !events_.empty(); }

    /**
     * Config sanity: MTBF/MTTR pairs complete (an entity kind with a
     * nonzero MTBF needs a nonzero MTTR), means >= 1 cycle, and a
     * nonzero horizon when any churn is enabled.
     *
     * @return empty string when sound, else a description.
     */
    std::string validateConfig() const;

    /**
     * Self-describing key/value pairs (rates, horizon, seed,
     * schedule summary) for the sweep JSON metadata block.
     */
    std::vector<std::pair<std::string, std::string>> metadata() const;

    std::size_t numArcs() const { return arcs_.size(); }
    const std::vector<Topology::Arc> &arcs() const { return arcs_; }
    const Topology &topology() const { return topo_; }
    const ChurnConfig &config() const { return cfg_; }

  private:
    /** One generated outage before pruning. */
    struct Episode
    {
        Cycle downAt;
        Cycle upAt;
        bool isRouter;
        std::size_t link;
        RouterId router;
    };

    void generateEpisodes(std::vector<Episode> &episodes) const;
    void buildEvents(const std::vector<Episode> &episodes,
                     const ArcGraph &graph);
    void pruneDisconnecting(const ArcGraph &graph,
                            std::vector<char> &cancelled) const;

    const Topology &topo_;
    ChurnConfig cfg_;
    std::vector<Topology::Arc> arcs_;
    /** Paired reverse arc of each arc (kNoPair if unidirectional). */
    std::vector<std::size_t> reverseArc_;

    std::vector<ServiceEvent> events_;
    std::uint64_t downEvents_ = 0;
    std::uint64_t pruned_ = 0;
};

} // namespace fbfly

#endif // FBFLY_FAULT_CHURN_MODEL_H
