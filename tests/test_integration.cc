/**
 * @file
 * Cross-module integration tests: the paper's headline claims on
 * scaled-down networks, checking simulation and analytic models
 * against each other.
 */

#include <gtest/gtest.h>

#include "cost/topology_cost.h"
#include "harness/experiment.h"
#include "power/power_model.h"
#include "routing/butterfly_dest.h"
#include "routing/clos_ad.h"
#include "routing/folded_clos_adaptive.h"
#include "routing/hypercube_ecube.h"
#include "routing/min_adaptive.h"
#include "routing/ugal.h"
#include "routing/valiant.h"
#include "topology/butterfly.h"
#include "topology/flattened_butterfly.h"
#include "topology/folded_clos.h"
#include "topology/hypercube.h"
#include "traffic/traffic_pattern.h"

namespace fbfly
{
namespace
{

ExperimentConfig
fastPhasing()
{
    ExperimentConfig e;
    e.warmupCycles = 400;
    e.measureCycles = 400;
    e.drainCycles = 1200;
    return e;
}

/**
 * Figure 6 in miniature (N = 64, equal bisection): the flattened
 * butterfly matches the butterfly on benign traffic and the folded
 * Clos on adversarial traffic.
 */
TEST(Integration, TopologyComparisonSignature)
{
    constexpr std::int64_t kNodes = 64;
    FlattenedButterfly fb(8, 2);
    Butterfly bf(8, 2);
    FoldedClos fc(kNodes, 8, 4);
    Hypercube hc(6);

    ClosAd fb_algo(fb);
    ButterflyDest bf_algo(bf);
    FoldedClosAdaptive fc_algo(fc);
    HypercubeEcube hc_algo(hc);

    UniformRandom ur(kNodes);
    AdversarialNeighbor wc(kNodes, 8);

    auto accepted = [&](const Topology &t, RoutingAlgorithm &a,
                        const TrafficPattern &p, Cycle period) {
        NetworkConfig cfg;
        cfg.vcDepth = 32 / a.numVcs();
        cfg.channelPeriod = period;
        return runLoadPoint(t, a, p, cfg, fastPhasing(), 0.95)
            .accepted;
    };

    // Uniform random: fbfly, butterfly, hypercube ~ full; Clos ~50%.
    EXPECT_GT(accepted(fb, fb_algo, ur, 1), 0.8);
    EXPECT_GT(accepted(bf, bf_algo, ur, 1), 0.8);
    EXPECT_GT(accepted(hc, hc_algo, ur, 2), 0.8);
    const double clos_ur = accepted(fc, fc_algo, ur, 1);
    EXPECT_GT(clos_ur, 0.4);
    EXPECT_LT(clos_ur, 0.62);

    // Worst case: butterfly collapses to ~1/k; the others hold 50%.
    EXPECT_LT(accepted(bf, bf_algo, wc, 1), 0.2);
    EXPECT_GT(accepted(fb, fb_algo, wc, 1), 0.4);
    EXPECT_GT(accepted(fc, fc_algo, wc, 1), 0.4);
}

/**
 * The worst-case latency ordering near saturation (Figure 4(b)):
 * CLOS AD beats UGAL-S which is comparable to VAL.
 */
TEST(Integration, ClosAdLatencyAdvantage)
{
    FlattenedButterfly topo(16, 2); // 256 nodes
    AdversarialNeighbor wc(topo.numNodes(), topo.k());

    auto latency = [&](RoutingAlgorithm &a) {
        NetworkConfig cfg;
        cfg.vcDepth = 32 / a.numVcs();
        const auto r =
            runLoadPoint(topo, a, wc, cfg, fastPhasing(), 0.45);
        EXPECT_FALSE(r.saturated);
        return r.avgLatency;
    };

    Ugal ugal_s(topo, true);
    ClosAd clos_ad(topo);
    const double l_ugal_s = latency(ugal_s);
    const double l_clos = latency(clos_ad);
    EXPECT_LT(l_clos, l_ugal_s)
        << "CLOS AD must cut latency near saturation";
}

/**
 * Dynamic response ordering at batch size 1 (Figure 5): greedy UGAL
 * worst, CLOS AD best-or-equal.
 */
TEST(Integration, BatchOrderingSignature)
{
    FlattenedButterfly topo(16, 2);
    AdversarialNeighbor wc(topo.numNodes(), topo.k());

    auto norm = [&](RoutingAlgorithm &a) {
        NetworkConfig cfg;
        cfg.vcDepth = 32 / a.numVcs();
        const BatchResult r = runBatch(topo, a, wc, cfg, 17, 1);
        return normalizedLatency(r.completionTime, r.batchSize);
    };

    Ugal ugal(topo, false);
    Ugal ugal_s(topo, true);
    ClosAd clos_ad(topo);
    Valiant val(topo);

    const double g = norm(ugal);
    const double s = norm(ugal_s);
    const double c = norm(clos_ad);
    const double v = norm(val);
    EXPECT_GT(g, s);
    EXPECT_GT(g, v);
    EXPECT_LE(c, s);
}

/**
 * Simulation vs analytic consistency: the topologies the cost model
 * charges for equal capacity really do deliver comparable uniform
 * throughput in simulation.
 */
TEST(Integration, EqualCapacityIsRealInSimulation)
{
    constexpr std::int64_t kNodes = 64;
    FlattenedButterfly fb(8, 2);
    MinAdaptive fb_algo(fb);
    FoldedClos fc(kNodes, 8, 8); // untapered: the cost-model config
    FoldedClosAdaptive fc_algo(fc);
    UniformRandom ur(kNodes);

    NetworkConfig cfg;
    cfg.vcDepth = 16;
    const double t_fb = runLoadPoint(fb, fb_algo, ur, cfg,
                                     fastPhasing(), 1.0)
                            .accepted;
    const double t_fc = runLoadPoint(fc, fc_algo, ur, cfg,
                                     fastPhasing(), 1.0)
                            .accepted;
    EXPECT_GT(t_fb, 0.85);
    EXPECT_GT(t_fc, 0.85);
}

/**
 * Cost and power models agree on the paper's ordering at every
 * plotted size.
 */
TEST(Integration, CostAndPowerOrderingsAgree)
{
    TopologyCostModel model;
    PowerModel pm;
    for (std::int64_t n = 1024; n <= 65536; n *= 4) {
        const auto fb = model.flattenedButterfly(n);
        const auto clos = model.foldedClos(n);
        EXPECT_LT(model.price(fb).total(),
                  model.price(clos).total())
            << n;
        EXPECT_LT(pm.power(fb).total(), pm.power(clos).total())
            << n;
    }
}

/**
 * Zero-load latency ordering of Figure 6(a): flattened butterfly <
 * folded Clos < hypercube.
 */
TEST(Integration, ZeroLoadLatencyOrdering)
{
    constexpr std::int64_t kNodes = 64;
    FlattenedButterfly fb(8, 2);
    ClosAd fb_algo(fb);
    FoldedClos fc(kNodes, 8, 4);
    FoldedClosAdaptive fc_algo(fc);
    Hypercube hc(6);
    HypercubeEcube hc_algo(hc);
    UniformRandom ur(kNodes);

    auto lat = [&](const Topology &t, RoutingAlgorithm &a,
                   Cycle period) {
        NetworkConfig cfg;
        cfg.vcDepth = 32 / a.numVcs();
        cfg.channelPeriod = period;
        return runLoadPoint(t, a, ur, cfg, fastPhasing(), 0.1)
            .avgLatency;
    };

    const double l_fb = lat(fb, fb_algo, 1);
    const double l_fc = lat(fc, fc_algo, 1);
    const double l_hc = lat(hc, hc_algo, 2);
    EXPECT_LT(l_fb, l_fc);
    EXPECT_LT(l_fc, l_hc);
}

} // namespace
} // namespace fbfly
