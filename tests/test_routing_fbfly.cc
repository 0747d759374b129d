/**
 * @file
 * Tests for the five flattened-butterfly routing algorithms of paper
 * Section 3.1: delivery, hop bounds, VC discipline, and the
 * minimal/non-minimal behaviours that drive Figures 4 and 5.
 */

#include <gtest/gtest.h>

#include <memory>

#include "harness/experiment.h"
#include "network/network.h"
#include "routing/clos_ad.h"
#include "routing/dor.h"
#include "routing/min_adaptive.h"
#include "routing/ugal.h"
#include "routing/valiant.h"
#include "topology/flattened_butterfly.h"
#include "traffic/injection.h"
#include "traffic/traffic_pattern.h"

namespace fbfly
{
namespace
{

std::unique_ptr<RoutingAlgorithm>
makeAlgo(const std::string &name, const FlattenedButterfly &topo)
{
    if (name == "DOR")
        return std::make_unique<DimensionOrder>(topo);
    if (name == "MIN AD")
        return std::make_unique<MinAdaptive>(topo);
    if (name == "VAL")
        return std::make_unique<Valiant>(topo);
    if (name == "UGAL")
        return std::make_unique<Ugal>(topo, false);
    if (name == "UGAL-S")
        return std::make_unique<Ugal>(topo, true);
    return std::make_unique<ClosAd>(topo);
}

class FbflyRoutingAlgos
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(FbflyRoutingAlgos, NamesAndVcBudgetsAreConsistent)
{
    FlattenedButterfly topo(4, 3); // n' = 2
    auto algo = makeAlgo(GetParam(), topo);
    EXPECT_EQ(algo->name(), GetParam() == "CLOS AD" ? "CLOS AD"
                                                    : GetParam());
    EXPECT_GE(algo->numVcs(), 1);
    // Sequential allocators: UGAL-S and CLOS AD only.
    const bool seq =
        GetParam() == "UGAL-S" || GetParam() == "CLOS AD";
    EXPECT_EQ(algo->sequential(), seq);
}

TEST_P(FbflyRoutingAlgos, DeliversAllPairsOnMultiDimNetwork)
{
    FlattenedButterfly topo(3, 3); // 27 nodes, 9 routers, n'=2
    auto algo = makeAlgo(GetParam(), topo);
    NetworkConfig cfg;
    cfg.numVcs = algo->numVcs();
    cfg.vcDepth = 8;
    Network net(topo, *algo, nullptr, cfg);

    std::uint64_t sent = 0;
    for (NodeId src = 0; src < topo.numNodes(); ++src) {
        for (NodeId dst = 0; dst < topo.numNodes(); ++dst) {
            if (src == dst)
                continue;
            net.terminal(src).enqueuePacket(net.now(), dst, true);
            ++sent;
        }
        for (int c = 0; c < 60 && !net.quiescent(); ++c)
            net.step();
    }
    for (int c = 0; c < 3000 && !net.quiescent(); ++c)
        net.step();
    EXPECT_TRUE(net.quiescent()) << "undelivered packets";
    EXPECT_EQ(net.stats().measuredEjected, sent);
}

TEST_P(FbflyRoutingAlgos, NoDeadlockUnderSaturatedAdversarial)
{
    FlattenedButterfly topo(4, 3);
    auto algo = makeAlgo(GetParam(), topo);
    AdversarialNeighbor pattern(topo.numNodes(), topo.k());
    NetworkConfig cfg;
    cfg.numVcs = algo->numVcs();
    cfg.vcDepth = 4;
    Network net(topo, *algo, &pattern, cfg);
    BernoulliInjection inj(1.0, 1, 3);

    std::uint64_t last = 0;
    for (int window = 0; window < 8; ++window) {
        for (int c = 0; c < 250; ++c) {
            inj.tick(net, false);
            net.step();
        }
        EXPECT_GT(net.stats().flitsEjected, last)
            << "stalled in window " << window;
        last = net.stats().flitsEjected;
    }
}

INSTANTIATE_TEST_SUITE_P(Algos, FbflyRoutingAlgos,
                         ::testing::Values("DOR", "MIN AD", "VAL",
                                           "UGAL", "UGAL-S",
                                           "CLOS AD"));

TEST(MinAdaptive, TakesOnlyMinimalHops)
{
    FlattenedButterfly topo(4, 3);
    MinAdaptive algo(topo);
    NetworkConfig cfg;
    cfg.numVcs = algo.numVcs();
    Network net(topo, algo, nullptr, cfg);

    // All pairs: hops must equal differing digits + 1 (ejection).
    for (NodeId src = 0; src < 16; ++src) {
        for (NodeId dst = 16; dst < 32; ++dst) {
            Network fresh(topo, algo, nullptr, cfg);
            fresh.terminal(src).enqueuePacket(0, dst, true);
            while (!fresh.quiescent())
                fresh.step();
            const int expected =
                topo.minimalHops(topo.routerOf(src),
                                 topo.routerOf(dst)) + 1;
            EXPECT_EQ(fresh.stats().hops.mean(), expected)
                << src << " -> " << dst;
        }
    }
}

TEST(Valiant, HopCountIsTwoPhaseBounded)
{
    FlattenedButterfly topo(4, 3); // n' = 2
    Valiant algo(topo);
    NetworkConfig cfg;
    cfg.numVcs = algo.numVcs();
    Network net(topo, algo, nullptr, cfg);

    for (NodeId src = 0; src < topo.numNodes(); src += 7)
        net.terminal(src).enqueuePacket(0, (src + 17) % 64, true);
    while (!net.quiescent())
        net.step();
    // At most n' hops per phase plus the ejection hop.
    EXPECT_LE(net.stats().hops.max(), 2 * topo.numDims() + 1);
    EXPECT_GE(net.stats().hops.min(), 1);
}

TEST(Valiant, RandomizesIntermediates)
{
    // Two packets from the same source to the same destination
    // should (almost always) see different intermediates over many
    // trials: measured by hop-count variance.
    FlattenedButterfly topo(8, 2);
    Valiant algo(topo);
    NetworkConfig cfg;
    cfg.numVcs = algo.numVcs();
    Network net(topo, algo, nullptr, cfg);
    for (int i = 0; i < 200; ++i)
        net.terminal(0).enqueuePacket(net.now(), 60, true);
    while (!net.quiescent())
        net.step();
    EXPECT_GT(net.stats().hops.stddev(), 0.1)
        << "VAL must not always pick the same intermediate";
}

TEST(Ugal, RoutesMinimallyAtLowLoad)
{
    // At negligible load the queue comparison always favours the
    // minimal path (q_min = 0), matching MIN AD (Section 3.1).
    FlattenedButterfly topo(8, 2);
    Ugal algo(topo, false);
    NetworkConfig cfg;
    cfg.numVcs = algo.numVcs();
    Network net(topo, algo, nullptr, cfg);
    for (NodeId src = 0; src < 8; ++src) {
        net.terminal(src).enqueuePacket(net.now(), 56 + src, true);
        for (int c = 0; c < 30; ++c)
            net.step();
    }
    while (!net.quiescent())
        net.step();
    // minimal = 1 inter-router hop + ejection.
    EXPECT_EQ(net.stats().hops.mean(), 2.0);
}

TEST(ClosAd, RoutesMinimallyAtLowLoad)
{
    FlattenedButterfly topo(8, 2);
    ClosAd algo(topo);
    NetworkConfig cfg;
    cfg.numVcs = algo.numVcs();
    Network net(topo, algo, nullptr, cfg);
    for (NodeId src = 0; src < 8; ++src) {
        net.terminal(src).enqueuePacket(net.now(), 56 + src, true);
        for (int c = 0; c < 30; ++c)
            net.step();
    }
    while (!net.quiescent())
        net.step();
    EXPECT_EQ(net.stats().hops.mean(), 2.0);
}

TEST(ClosAd, HopCountNeverExceedsFoldedClosEquivalent)
{
    // CLOS AD's intermediate comes from the closest common
    // ancestors, so hops <= 2 * highestDiffDim + ejection.
    FlattenedButterfly topo(4, 3);
    ClosAd algo(topo);
    AdversarialNeighbor pattern(topo.numNodes(), topo.k());
    NetworkConfig cfg;
    cfg.numVcs = algo.numVcs();
    cfg.vcDepth = 4;
    Network net(topo, algo, &pattern, cfg);
    BernoulliInjection inj(0.6, 1, 5);
    for (int c = 0; c < 2000; ++c) {
        inj.tick(net, c > 500);
        net.step();
    }
    EXPECT_LE(net.stats().hops.max(), 2 * topo.numDims() + 1);
}

/** The throughput signature of Figure 4(b), on a scaled-down
 *  network: MIN AD collapses to ~1/k on adversarial traffic while
 *  the non-minimal adaptive algorithms deliver ~50%. */
TEST(FbflyRoutingThroughput, AdversarialSignature)
{
    FlattenedButterfly topo(8, 2); // 64 nodes, keeps the test fast
    AdversarialNeighbor pattern(topo.numNodes(), topo.k());
    ExperimentConfig expcfg;
    expcfg.warmupCycles = 400;
    expcfg.measureCycles = 400;
    expcfg.drainCycles = 1000;

    auto throughput = [&](RoutingAlgorithm &algo) {
        NetworkConfig netcfg;
        netcfg.vcDepth = 32 / algo.numVcs();
        return runLoadPoint(topo, algo, pattern, netcfg, expcfg,
                            0.9)
            .accepted;
    };

    MinAdaptive min_ad(topo);
    Valiant val(topo);
    Ugal ugal_s(topo, true);
    ClosAd clos_ad(topo);

    const double t_min = throughput(min_ad);
    EXPECT_NEAR(t_min, 1.0 / topo.k(), 0.04);
    EXPECT_GT(throughput(val), 0.4);
    EXPECT_GT(throughput(ugal_s), 0.4);
    EXPECT_GT(throughput(clos_ad), 0.4);
}

/** The benign signature of Figure 4(a): everything but VAL gets
 *  close to full throughput; VAL caps near 50%. */
TEST(FbflyRoutingThroughput, UniformSignature)
{
    FlattenedButterfly topo(8, 2);
    UniformRandom pattern(topo.numNodes());
    ExperimentConfig expcfg;
    expcfg.warmupCycles = 400;
    expcfg.measureCycles = 400;
    expcfg.drainCycles = 1000;

    auto throughput = [&](RoutingAlgorithm &algo) {
        NetworkConfig netcfg;
        netcfg.vcDepth = 32 / algo.numVcs();
        return runLoadPoint(topo, algo, pattern, netcfg, expcfg,
                            1.0)
            .accepted;
    };

    MinAdaptive min_ad(topo);
    Valiant val(topo);
    Ugal ugal_s(topo, true);
    ClosAd clos_ad(topo);

    EXPECT_GT(throughput(min_ad), 0.85);
    EXPECT_GT(throughput(ugal_s), 0.8);
    EXPECT_GT(throughput(clos_ad), 0.8);
    const double t_val = throughput(val);
    EXPECT_GT(t_val, 0.35);
    EXPECT_LT(t_val, 0.6);
}

/** The Figure 5 mechanism: greedy UGAL piles a router's whole burst
 *  onto the minimal channel; the sequential variant spreads it. */
TEST(FbflyRoutingTransient, GreedyVsSequentialBatch)
{
    // Full-size (32-ary) routers: the greedy pile-up is ~k deep.
    FlattenedButterfly topo(32, 2);
    AdversarialNeighbor pattern(topo.numNodes(), topo.k());
    NetworkConfig cfg;

    Ugal greedy(topo, false);
    Ugal sequential(topo, true);
    NetworkConfig g_cfg;
    g_cfg.vcDepth = 32 / greedy.numVcs();
    NetworkConfig s_cfg;
    s_cfg.vcDepth = 32 / sequential.numVcs();

    const auto g = runBatch(topo, greedy, pattern, g_cfg, 11, 1);
    const auto s = runBatch(topo, sequential, pattern, s_cfg, 11, 1);
    EXPECT_GT(normalizedLatency(g.completionTime, g.batchSize),
              1.5 * normalizedLatency(s.completionTime, s.batchSize))
        << "greedy transient imbalance should dominate small "
           "batches";
}

} // namespace
} // namespace fbfly
