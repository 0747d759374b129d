/**
 * @file
 * Fault-aware routing tests: adaptive algorithms mask dead channels,
 * deliver everything at low load around a failed link, never select
 * a dead port, and report unreachable destinations by dropping
 * instead of hanging.
 */

#include <gtest/gtest.h>

#include <memory>

#include "fault/fault_model.h"
#include "network/network.h"
#include "routing/clos_ad.h"
#include "routing/ghc_adaptive.h"
#include "routing/min_adaptive.h"
#include "routing/ugal.h"
#include "routing/valiant.h"
#include "topology/flattened_butterfly.h"
#include "topology/generalized_hypercube.h"

namespace fbfly
{
namespace
{

std::size_t
arcIndexOf(const std::vector<Topology::Arc> &arcs, RouterId a,
           RouterId b)
{
    for (std::size_t i = 0; i < arcs.size(); ++i) {
        if (arcs[i].src == a && arcs[i].dst == b)
            return i;
    }
    ADD_FAILURE() << "no arc " << a << "->" << b;
    return 0;
}

/** Send every (src, dst) pair once and run to quiescence. */
std::uint64_t
sendAllPairs(Network &net, std::int64_t n)
{
    std::uint64_t sent = 0;
    for (NodeId dst = 0; dst < n; ++dst) {
        for (NodeId src = 0; src < n; ++src) {
            if (src == dst)
                continue;
            net.terminal(src).enqueuePacket(net.now(), dst, true);
            ++sent;
        }
        for (int c = 0; c < 100 && !net.quiescent(); ++c)
            net.step();
    }
    for (int c = 0; c < 5000 && !net.quiescent(); ++c)
        net.step();
    return sent;
}

class AdaptiveAroundDeadLink
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(AdaptiveAroundDeadLink, DeliversEverythingAndMasksDeadPort)
{
    FlattenedButterfly topo(4, 2);
    std::unique_ptr<RoutingAlgorithm> algo;
    if (GetParam() == "minad")
        algo = std::make_unique<MinAdaptive>(topo);
    else if (GetParam() == "ugal")
        algo = std::make_unique<Ugal>(topo, false);
    else if (GetParam() == "ugals")
        algo = std::make_unique<Ugal>(topo, true);
    else if (GetParam() == "closad")
        algo = std::make_unique<ClosAd>(topo);
    else
        algo = std::make_unique<Valiant>(topo);

    FaultModel fm(topo);
    ASSERT_EQ(fm.failLinkBetween(0, 1), 2);
    ASSERT_TRUE(fm.connected());

    NetworkConfig cfg;
    cfg.numVcs = algo->numVcs();
    cfg.vcDepth = 8;
    cfg.faults = &fm;
    cfg.watchdogCycles = 2000;
    ASSERT_TRUE(Network::validate(topo, *algo, cfg).ok());
    Network net(topo, *algo, nullptr, cfg);

    const std::uint64_t sent = sendAllPairs(net, topo.numNodes());
    EXPECT_TRUE(net.quiescent());
    EXPECT_FALSE(net.stalled());
    EXPECT_EQ(net.stats().measuredEjected, sent);
    EXPECT_EQ(net.stats().flitsDropped, 0u);
    EXPECT_EQ(net.checkInvariants(), "");

    // The dead channel carried nothing, in either direction.
    const auto arcs = topo.arcs();
    const auto counts = net.interRouterFlitCounts();
    EXPECT_EQ(counts[arcIndexOf(arcs, 0, 1)], 0u);
    EXPECT_EQ(counts[arcIndexOf(arcs, 1, 0)], 0u);
    // Traffic between the severed routers flowed around the failure.
    EXPECT_GT(net.stats().hops.mean(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(FaultRouting, AdaptiveAroundDeadLink,
                         ::testing::Values("minad", "ugal", "val",
                                           "ugals", "closad"));

TEST(FaultRouting, GhcAdaptiveRoutesAroundDeadLink)
{
    GeneralizedHypercube topo({4, 4});
    GhcAdaptive algo(topo);
    FaultModel fm(topo);
    ASSERT_EQ(fm.failLinkBetween(0, 1), 2); // dimension-0 neighbors
    ASSERT_TRUE(fm.connected());

    NetworkConfig cfg;
    cfg.numVcs = algo.numVcs();
    cfg.vcDepth = 8;
    cfg.faults = &fm;
    cfg.watchdogCycles = 2000;
    Network net(topo, algo, nullptr, cfg);

    const std::uint64_t sent = sendAllPairs(net, topo.numNodes());
    EXPECT_TRUE(net.quiescent());
    EXPECT_EQ(net.stats().measuredEjected, sent);
    EXPECT_EQ(net.stats().flitsDropped, 0u);
    const auto counts = net.interRouterFlitCounts();
    const auto arcs = topo.arcs();
    EXPECT_EQ(counts[arcIndexOf(arcs, 0, 1)], 0u);
}

TEST(FaultRouting, UnreachableDestinationDropsInsteadOfHanging)
{
    // Sever router 1 completely: its nodes become unreachable.  The
    // network must drop those packets (budgeted escapes) and reach
    // quiescence rather than hang.
    FlattenedButterfly topo(4, 2);
    MinAdaptive algo(topo);
    FaultModel fm(topo);
    for (RouterId r = 0; r < 4; ++r) {
        if (r != 1) {
            ASSERT_EQ(fm.failLinkBetween(1, r), 2);
        }
    }
    ASSERT_FALSE(fm.connected());

    NetworkConfig cfg;
    cfg.numVcs = algo.numVcs();
    cfg.vcDepth = 8;
    cfg.faults = &fm;
    cfg.watchdogCycles = 5000;
    // validate() flags the disconnection; the run is still legal for
    // callers that accept drops.
    EXPECT_FALSE(Network::validate(topo, algo, cfg).ok());
    Network net(topo, algo, nullptr, cfg);

    // Nodes of router 0 -> nodes of router 1 (4 terminals each).
    std::uint64_t sent = 0;
    for (NodeId src = 0; src < 4; ++src) {
        for (NodeId dst = 4; dst < 8; ++dst) {
            net.terminal(src).enqueuePacket(net.now(), dst, true);
            ++sent;
        }
    }
    for (int c = 0; c < 20000 && !net.quiescent(); ++c)
        net.step();
    EXPECT_TRUE(net.quiescent());
    EXPECT_FALSE(net.stalled());
    EXPECT_EQ(net.stats().measuredEjected, 0u);
    EXPECT_EQ(net.stats().measuredDropped, sent);
    EXPECT_EQ(net.stats().packetsUnreachable, sent);
    EXPECT_EQ(net.checkInvariants(), "");
}

TEST(FaultRouting, MidRunLinkFailureIsSurvived)
{
    // A link that dies mid-run: packets in flight keep flowing,
    // later packets route around it, nothing is lost.
    FlattenedButterfly topo(4, 2);
    MinAdaptive algo(topo);
    FaultModel fm(topo);
    fm.failLinkBetween(0, 1, /*at=*/50);

    NetworkConfig cfg;
    cfg.numVcs = algo.numVcs();
    cfg.vcDepth = 8;
    cfg.faults = &fm;
    cfg.watchdogCycles = 2000;
    cfg.invariantCheckInterval = 16;
    Network net(topo, algo, nullptr, cfg);

    Rng rng(99);
    std::uint64_t sent = 0;
    for (int c = 0; c < 400; ++c) {
        const auto src = static_cast<NodeId>(rng.nextBounded(16));
        auto dst = static_cast<NodeId>(rng.nextBounded(16));
        if (dst == src)
            dst = (dst + 1) % 16;
        net.terminal(src).enqueuePacket(net.now(), dst, true);
        ++sent;
        net.step();
    }
    for (int c = 0; c < 5000 && !net.quiescent(); ++c)
        net.step();
    EXPECT_TRUE(net.quiescent());
    EXPECT_EQ(net.stats().measuredEjected, sent);
    EXPECT_EQ(net.stats().flitsDropped, 0u);
    EXPECT_EQ(net.checkInvariants(), "");
}

} // namespace
} // namespace fbfly
