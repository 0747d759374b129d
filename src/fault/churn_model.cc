#include "fault/churn_model.h"

#include <algorithm>
#include <cmath>

#include "common/json.h"
#include "common/log.h"
#include "common/rng.h"

namespace fbfly
{

namespace
{

constexpr std::uint64_t kLinkTag = 0x4c696e6b4368726eULL;   // "LinkChrn"
constexpr std::uint64_t kRouterTag = 0x527472436875726eULL; // "RtrChurn"

/** One exponential draw with mean @p mean, floored at one cycle
 *  (sub-cycle outages/uptimes are not representable) and capped well
 *  inside the Cycle range. */
Cycle
expDraw(Rng &rng, double mean)
{
    const double u = rng.nextDouble(); // [0, 1), so 1-u > 0
    double d = -mean * std::log1p(-u);
    if (!(d >= 1.0))
        d = 1.0;
    constexpr double kCap = 9.0e18;
    if (d > kCap)
        d = kCap;
    return static_cast<Cycle>(d);
}

} // namespace

ChurnModel::ChurnModel(const Topology &topo, const ChurnConfig &cfg)
    : topo_(topo), cfg_(cfg), arcs_(topo.arcs())
{
    const std::string bad = validateConfig();
    FBFLY_ASSERT(bad.empty(), "churn config invalid: ", bad);

    // A link outage takes both directions down and repairs both.
    const ArcGraph graph(topo, arcs_);
    reverseArc_ = graph.reverseArcs();

    std::vector<Episode> episodes;
    generateEpisodes(episodes);
    buildEvents(episodes, graph);
}

void
ChurnModel::generateEpisodes(std::vector<Episode> &episodes) const
{
    const Cycle horizon = cfg_.horizon;
    if (horizon == 0)
        return;

    // Per-entity renewal streams: derived only from (seed, kind,
    // entity index), so the schedule is independent of everything
    // else in the run (the ErrorModel determinism contract).
    if (cfg_.linkMtbf > 0.0) {
        Rng base(cfg_.seed ^ kLinkTag);
        for (std::size_t i = 0; i < arcs_.size(); ++i) {
            if (reverseArc_[i] != kNoPair && reverseArc_[i] < i)
                continue; // pair represented by the lower index
            Rng rng = base.split(i);
            Cycle t = 0;
            for (;;) {
                const Cycle up = expDraw(rng, cfg_.linkMtbf);
                if (up >= horizon - t)
                    break; // next failure lands past the horizon
                t += up;
                const Cycle down = expDraw(rng, cfg_.linkMttr);
                episodes.push_back({t, t + down, false, i, kInvalid});
                t += down;
                if (t >= horizon)
                    break;
            }
        }
    }
    if (cfg_.routerMtbf > 0.0) {
        Rng base(cfg_.seed ^ kRouterTag);
        const int num_routers = topo_.numRouters();
        for (RouterId r = 0; r < num_routers; ++r) {
            Rng rng = base.split(static_cast<std::uint64_t>(r));
            Cycle t = 0;
            for (;;) {
                const Cycle up = expDraw(rng, cfg_.routerMtbf);
                if (up >= horizon - t)
                    break;
                t += up;
                const Cycle down = expDraw(rng, cfg_.routerMttr);
                episodes.push_back(
                    {t, t + down, true, kNoPair, r});
                t += down;
                if (t >= horizon)
                    break;
            }
        }
    }
}

void
ChurnModel::buildEvents(const std::vector<Episode> &episodes,
                        const ArcGraph &graph)
{
    events_.clear();
    events_.reserve(episodes.size() * 2);
    for (std::size_t e = 0; e < episodes.size(); ++e) {
        const Episode &ep = episodes[e];
        ServiceEvent down;
        down.at = ep.downAt;
        down.kind = ep.isRouter ? ServiceEvent::Kind::kRouterDown
                                : ServiceEvent::Kind::kLinkDown;
        down.link = ep.link;
        down.router = ep.router;
        down.episode = e;
        ServiceEvent up = down;
        up.at = ep.upAt;
        up.kind = ep.isRouter ? ServiceEvent::Kind::kRouterUp
                              : ServiceEvent::Kind::kLinkUp;
        events_.push_back(down);
        events_.push_back(up);
    }
    // Deterministic total order: by cycle, repairs before failures
    // at the same cycle (a healed entity can carry traffic again the
    // cycle another one fails), episodes as the final tie-break.
    std::sort(events_.begin(), events_.end(),
              [](const ServiceEvent &a, const ServiceEvent &b) {
                  if (a.at != b.at)
                      return a.at < b.at;
                  if (a.isDown() != b.isDown())
                      return !a.isDown();
                  return a.episode < b.episode;
              });

    if (cfg_.preserveConnectivity && !episodes.empty()) {
        std::vector<char> cancelled(episodes.size(), 0);
        pruneDisconnecting(graph, cancelled);
        std::vector<ServiceEvent> kept;
        kept.reserve(events_.size());
        for (const ServiceEvent &ev : events_)
            if (!cancelled[ev.episode])
                kept.push_back(ev);
        events_.swap(kept);
        for (const char c : cancelled)
            pruned_ += c ? 1 : 0;
    }

    downEvents_ = 0;
    for (const ServiceEvent &ev : events_)
        downEvents_ += ev.isDown() ? 1 : 0;
}

void
ChurnModel::pruneDisconnecting(const ArcGraph &graph,
                               std::vector<char> &cancelled) const
{
    std::vector<int> downArc(arcs_.size(), 0);
    std::vector<int> downRouter(
        static_cast<std::size_t>(topo_.numRouters()), 0);

    // Each outage is tried against the current down-set and kept
    // only when the alive terminal-hosting routers stay strongly
    // connected with it.
    for (const ServiceEvent &ev : events_) {
        if (cancelled[ev.episode])
            continue;
        const bool router = ev.kind == ServiceEvent::Kind::kRouterDown ||
                            ev.kind == ServiceEvent::Kind::kRouterUp;
        const auto set = [&](int down) {
            if (router) {
                downRouter[static_cast<std::size_t>(ev.router)] = down;
                return;
            }
            downArc[ev.link] = down;
            if (reverseArc_[ev.link] != kNoPair)
                downArc[reverseArc_[ev.link]] = down;
        };
        set(ev.isDown() ? 1 : 0);
        if (ev.isDown() && !graph.terminalsConnected(downArc, downRouter)) {
            cancelled[ev.episode] = 1;
            set(0);
        }
    }
}

std::string
ChurnModel::validateConfig() const
{
    std::string out;
    const auto bad = [&out](const std::string &msg) {
        if (!out.empty())
            out += "; ";
        out += msg;
    };
    if (cfg_.linkMtbf < 0.0 || cfg_.linkMttr < 0.0 ||
        cfg_.routerMtbf < 0.0 || cfg_.routerMttr < 0.0)
        bad("MTBF/MTTR must be non-negative");
    if (cfg_.linkMtbf > 0.0 && cfg_.linkMttr < 1.0)
        bad("linkMtbf set but linkMttr < 1 cycle");
    if (cfg_.routerMtbf > 0.0 && cfg_.routerMttr < 1.0)
        bad("routerMtbf set but routerMttr < 1 cycle");
    if ((cfg_.linkMtbf > 0.0 && cfg_.linkMtbf < 1.0) ||
        (cfg_.routerMtbf > 0.0 && cfg_.routerMtbf < 1.0))
        bad("a nonzero MTBF must be >= 1 cycle");
    if ((cfg_.linkMtbf > 0.0 || cfg_.routerMtbf > 0.0) &&
        cfg_.horizon == 0)
        bad("churn enabled but horizon is 0");
    return out;
}

std::vector<std::pair<std::string, std::string>>
ChurnModel::metadata() const
{
    std::vector<std::pair<std::string, std::string>> kv;
    kv.emplace_back("link_mtbf", jsonNumber(cfg_.linkMtbf));
    kv.emplace_back("link_mttr", jsonNumber(cfg_.linkMttr));
    kv.emplace_back("router_mtbf", jsonNumber(cfg_.routerMtbf));
    kv.emplace_back("router_mttr", jsonNumber(cfg_.routerMttr));
    kv.emplace_back("churn_horizon", std::to_string(cfg_.horizon));
    kv.emplace_back("churn_seed", std::to_string(cfg_.seed));
    kv.emplace_back("preserve_connectivity",
                    cfg_.preserveConnectivity ? "true" : "false");
    kv.emplace_back("churn_down_events",
                    std::to_string(downEvents_));
    kv.emplace_back("churn_pruned_episodes",
                    std::to_string(pruned_));
    return kv;
}

} // namespace fbfly
