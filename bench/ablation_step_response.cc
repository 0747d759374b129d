/**
 * @file
 * Ablation: step response over time.
 *
 * Figure 5 measures transients through batch completion; this bench
 * shows the same dynamics as an explicit time series.  The network
 * runs uniform random traffic at 0.4 load, then the pattern
 * *switches* to the worst case at cycle 2000 and back at cycle 4000.
 * Per-200-cycle windows of average packet latency show MIN AD
 * collapsing after the switch (its worst-case capacity is 1/32)
 * while the globally-adaptive algorithms re-balance within a short
 * transient — CLOS AD with the smallest excursion.
 */

#include <cstdio>
#include <vector>

#include "network/network.h"
#include "obs/metrics.h"
#include "obs/obs_sampler.h"
#include "routing/clos_ad.h"
#include "routing/min_adaptive.h"
#include "routing/ugal.h"
#include "topology/flattened_butterfly.h"
#include "traffic/injection.h"
#include "traffic/traffic_pattern.h"

using namespace fbfly;

namespace
{

/** A pattern that delegates to a switchable target. */
class PatternSwitch : public TrafficPattern
{
  public:
    PatternSwitch(std::int64_t n, const TrafficPattern *initial)
        : TrafficPattern(n), current_(initial)
    {
    }
    void set(const TrafficPattern *p) { current_ = p; }
    std::string name() const override { return "switchable"; }
    NodeId
    dest(NodeId src, Rng &rng) const override
    {
        return current_->dest(src, rng);
    }

  private:
    const TrafficPattern *current_;
};

constexpr int kWindow = 200;
constexpr int kPhase = 2000;
constexpr double kLoad = 0.4;

/** The run's per-window series (obs.window_latency, obs.backlog). */
MetricsRegistry
run(RoutingAlgorithm &algo, const FlattenedButterfly &topo)
{
    UniformRandom ur(topo.numNodes());
    AdversarialNeighbor wc(topo.numNodes(), topo.k());
    PatternSwitch pattern(topo.numNodes(), &ur);

    NetworkConfig cfg;
    cfg.numVcs = algo.numVcs();
    cfg.vcDepth = 32 / algo.numVcs();
    cfg.seed = 2007;
    Network net(topo, algo, &pattern, cfg);
    BernoulliInjection inj(kLoad, 1, 77);
    MetricsRegistry series;
    ObsSampler sampler(net, series, kWindow);

    for (int c = 0; c < 3 * kPhase; ++c) {
        if (c == kPhase)
            pattern.set(&wc);
        if (c == 2 * kPhase)
            pattern.set(&ur);
        inj.tick(net, true);
        net.step();
        sampler.tick();
    }
    return series;
}

/** Window values of series @p name. */
const std::vector<double> &
values(const MetricsRegistry &m, const char *name)
{
    return m.findSeries(name)->values;
}

} // namespace

int
main()
{
    FlattenedButterfly topo(32, 2);
    MinAdaptive min_ad(topo);
    Ugal ugal_s(topo, true);
    ClosAd clos_ad(topo);

    std::printf("Step response at 0.4 load: uniform -> worst-case "
                "at cycle %d -> uniform at cycle %d\n"
                "(average latency of packets delivered per "
                "%d-cycle window)\n\n",
                kPhase, 2 * kPhase, kWindow);

    const MetricsRegistry runs[] = {run(min_ad, topo),
                                    run(ugal_s, topo),
                                    run(clos_ad, topo)};
    const std::vector<double> &a = values(runs[0], "obs.window_latency");
    const std::vector<double> &b = values(runs[1], "obs.window_latency");
    const std::vector<double> &c = values(runs[2], "obs.window_latency");

    std::printf("%8s %12s %12s %12s\n", "cycle", "MIN AD", "UGAL-S",
                "CLOS AD");
    for (std::size_t i = 0; i < a.size(); ++i) {
        std::printf("%8llu %12.1f %12.1f %12.1f\n",
                    static_cast<unsigned long long>(i * kWindow), a[i],
                    b[i], c[i]);
    }

    std::printf("\nbacklog at the end of the worst-case phase "
                "(packets still queued per node):\n");
    const std::size_t end_wc = 2 * kPhase / kWindow - 1;
    std::printf("  MIN AD %.1f   UGAL-S %.2f   CLOS AD %.2f\n",
                values(runs[0], "obs.backlog")[end_wc] / 1024.0,
                values(runs[1], "obs.backlog")[end_wc] / 1024.0,
                values(runs[2], "obs.backlog")[end_wc] / 1024.0);
    return 0;
}
