/**
 * @file
 * The decorators of layers.h must forward exactly: a load point run
 * through them gives the same simulated statistics as one without
 * them, and their counts match the work the run did.
 */

#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "harness/experiment.h"
#include "layers.h"
#include "routing/min_adaptive.h"
#include "routing/ugal.h"
#include "topology/flattened_butterfly.h"
#include "traffic/traffic_pattern.h"

using namespace fbfly;

namespace
{

void
expectSameDouble(double a, double b)
{
    if (std::isnan(a))
        EXPECT_TRUE(std::isnan(b));
    else
        EXPECT_EQ(a, b);
}

/** Run one small-flat load point plain and decorated; compare. */
void
checkForwarding(RoutingAlgorithm &algo, const TrafficPattern &pattern,
                double offered, int vc_depth, std::uint64_t seed)
{
    const FlattenedButterfly topo(4, 3);
    NetworkConfig netcfg;
    netcfg.vcDepth = vc_depth;
    ExperimentConfig expcfg;
    expcfg.warmupCycles = 300;
    expcfg.measureCycles = 300;
    expcfg.drainCycles = 3000;
    expcfg.seed = seed;

    const LoadPointResult plain =
        runLoadPoint(topo, algo, pattern, netcfg, expcfg, offered);
    perfbench::TracedRouting routing(algo);
    const perfbench::TracedTraffic traffic(pattern);
    const LoadPointResult traced =
        runLoadPoint(topo, routing, traffic, netcfg, expcfg, offered);

    ASSERT_EQ(plain.status, LoadPointStatus::kDelivered);
    EXPECT_EQ(plain.status, traced.status);
    EXPECT_EQ(plain.measuredPackets, traced.measuredPackets);
    EXPECT_EQ(plain.flitsDropped, traced.flitsDropped);
    expectSameDouble(plain.accepted, traced.accepted);
    expectSameDouble(plain.avgLatency, traced.avgLatency);
    expectSameDouble(plain.avgNetworkLatency, traced.avgNetworkLatency);
    expectSameDouble(plain.p99Latency, traced.p99Latency);
    expectSameDouble(plain.avgHops, traced.avgHops);
    EXPECT_EQ(plain.delivery.tracked, traced.delivery.tracked);
    EXPECT_EQ(plain.delivery.delivered, traced.delivery.delivered);
    EXPECT_EQ(plain.delivery.reorders, traced.delivery.reorders);
    EXPECT_TRUE(traced.delivery.clean());

    // Every labeled packet was routed at least once per router it
    // visited and drew one destination.
    EXPECT_GT(routing.totals.calls, traced.measuredPackets);
    EXPECT_GE(traffic.totals.calls, traced.measuredPackets);
    EXPECT_EQ(routing.drops, 0u);
    EXPECT_GT(routing.totals.busySeconds, 0.0);
    EXPECT_GT(traffic.totals.busySeconds, 0.0);
}

TEST(PerfbenchLayers, MinAdUniformForwardsExactly)
{
    const FlattenedButterfly topo(4, 3);
    MinAdaptive algo(topo);
    const UniformRandom pattern(topo.numNodes());
    checkForwarding(algo, pattern, 0.5, 16, 2007);
}

TEST(PerfbenchLayers, UgalSAdversarialForwardsExactly)
{
    const FlattenedButterfly topo(4, 3);
    Ugal algo(topo, true);
    const AdversarialNeighbor pattern(topo.numNodes(), topo.k());
    checkForwarding(algo, pattern, 0.3, 8, 11);
}

TEST(PerfbenchLayers, InterfaceQueriesForward)
{
    const FlattenedButterfly topo(4, 2);
    Ugal algo(topo, true);
    const perfbench::TracedRouting routing(algo);
    EXPECT_EQ(routing.name(), algo.name());
    EXPECT_EQ(routing.numVcs(), algo.numVcs());
    EXPECT_EQ(routing.sequential(), algo.sequential());
    EXPECT_EQ(routing.preservesFlowOrder(), algo.preservesFlowOrder());

    const AdversarialNeighbor pattern(topo.numNodes(), topo.k());
    const perfbench::TracedTraffic traffic(pattern);
    EXPECT_EQ(traffic.name(), pattern.name());
    EXPECT_EQ(traffic.numNodes(), pattern.numNodes());
}

} // namespace
