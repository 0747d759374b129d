/**
 * @file
 * Tests for the experiment harness (open-loop load points, sweeps,
 * batch runs) — the Section 3.2 methodology.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "harness/experiment.h"
#include "network/router.h"
#include "routing/min_adaptive.h"
#include "routing/valiant.h"
#include "topology/flattened_butterfly.h"
#include "topology/topology.h"
#include "traffic/traffic_pattern.h"

namespace fbfly
{
namespace
{

/**
 * Pathological algorithm: declares every packet unreachable at the
 * first router.  Drives runLoadPoint to the kUnreachable exit.
 */
class DropAll final : public RoutingAlgorithm
{
  public:
    std::string name() const override { return "DROP ALL"; }
    int numVcs() const override { return 1; }
    RouteDecision route(Router &, Flit &) override
    {
        return RouteDecision::dropped();
    }
};

/**
 * Pathological algorithm: forwards every flit out a fixed
 * inter-router port on VC 0 and never ejects.  All traffic funnels
 * onto the cycle of the router-successor graph, the credit loop
 * fills, and the network deadlocks — the kStalled exit.
 */
class RingForward final : public RoutingAlgorithm
{
  public:
    explicit RingForward(const Topology &topo)
        : next_(static_cast<std::size_t>(topo.numRouters()), kInvalid)
    {
        for (const auto &arc : topo.arcs()) {
            auto &slot = next_[static_cast<std::size_t>(arc.src)];
            if (slot == kInvalid)
                slot = arc.srcPort;
        }
    }
    std::string name() const override { return "RING FWD"; }
    int numVcs() const override { return 1; }
    RouteDecision route(Router &router, Flit &) override
    {
        return {next_[static_cast<std::size_t>(router.id())], 0,
                false};
    }

  private:
    std::vector<PortId> next_;
};

struct Fixture
{
    Fixture() : topo(8, 2), algo(topo), pattern(topo.numNodes())
    {
        expcfg.warmupCycles = 300;
        expcfg.measureCycles = 400;
        expcfg.drainCycles = 1500;
    }
    FlattenedButterfly topo;
    MinAdaptive algo;
    UniformRandom pattern;
    NetworkConfig netcfg;
    ExperimentConfig expcfg;
};

TEST(Experiment, AcceptedTracksOfferedBelowSaturation)
{
    Fixture f;
    for (const double load : {0.1, 0.3, 0.5, 0.7}) {
        const auto r = runLoadPoint(f.topo, f.algo, f.pattern,
                                    f.netcfg, f.expcfg, load);
        EXPECT_FALSE(r.saturated) << load;
        EXPECT_NEAR(r.accepted, load, 0.05) << load;
        EXPECT_GT(r.measuredPackets, 0u);
    }
}

TEST(Experiment, LatencyIncreasesWithLoad)
{
    Fixture f;
    const auto lo = runLoadPoint(f.topo, f.algo, f.pattern, f.netcfg,
                                 f.expcfg, 0.1);
    const auto hi = runLoadPoint(f.topo, f.algo, f.pattern, f.netcfg,
                                 f.expcfg, 0.9);
    EXPECT_GT(hi.avgLatency, lo.avgLatency);
    EXPECT_GE(lo.p99Latency, lo.avgLatency - 1.0);
}

TEST(Experiment, SaturationDetectedBeyondCapacity)
{
    // An adversarial pattern limits MIN AD to 1/k: a 0.9 offered
    // load cannot drain within the bound.
    FlattenedButterfly topo(8, 2);
    MinAdaptive algo(topo);
    AdversarialNeighbor wc(topo.numNodes(), topo.k());
    ExperimentConfig expcfg;
    expcfg.warmupCycles = 200;
    expcfg.measureCycles = 200;
    expcfg.drainCycles = 400;
    NetworkConfig netcfg;
    const auto r =
        runLoadPoint(topo, algo, wc, netcfg, expcfg, 0.9);
    EXPECT_TRUE(r.saturated);
    EXPECT_LT(r.accepted, 0.25);
}

TEST(Experiment, SweepPreservesOrder)
{
    Fixture f;
    const std::vector<double> loads{0.1, 0.2, 0.3};
    const auto rs = runLoadSweep(f.topo, f.algo, f.pattern, f.netcfg,
                                 f.expcfg, loads);
    ASSERT_EQ(rs.size(), loads.size());
    for (std::size_t i = 0; i < loads.size(); ++i)
        EXPECT_EQ(rs[i].offered, loads[i]);
}

TEST(Experiment, DeterministicForEqualSeeds)
{
    Fixture f;
    const auto a = runLoadPoint(f.topo, f.algo, f.pattern, f.netcfg,
                                f.expcfg, 0.4);
    const auto b = runLoadPoint(f.topo, f.algo, f.pattern, f.netcfg,
                                f.expcfg, 0.4);
    EXPECT_EQ(a.avgLatency, b.avgLatency);
    EXPECT_EQ(a.accepted, b.accepted);
    EXPECT_EQ(a.measuredPackets, b.measuredPackets);

    ExperimentConfig other = f.expcfg;
    other.seed = 999;
    const auto c = runLoadPoint(f.topo, f.algo, f.pattern, f.netcfg,
                                other, 0.4);
    EXPECT_NE(a.avgLatency, c.avgLatency);
}

TEST(Experiment, SaturationThroughputMatchesCapacity)
{
    Fixture f;
    const double t = measureSaturationThroughput(
        f.topo, f.algo, f.pattern, f.netcfg, f.expcfg);
    EXPECT_GT(t, 0.85);
    EXPECT_LE(t, 1.0 + 1e-9);
}

TEST(Batch, CompletesAndNormalizes)
{
    FlattenedButterfly topo(8, 2);
    Valiant algo(topo);
    UniformRandom pattern(topo.numNodes());
    NetworkConfig netcfg;
    const auto r = runBatch(topo, algo, pattern, netcfg, 7, 10);
    EXPECT_EQ(r.batchSize, 10);
    EXPECT_GT(r.completionTime, 10u);
    EXPECT_NEAR(normalizedLatency(r.completionTime, r.batchSize),
                static_cast<double>(r.completionTime) / 10, 1e-12);
    EXPECT_EQ(r.load.status, LoadPointStatus::kDelivered);
    ASSERT_TRUE(r.load.deliveryChecked);
    EXPECT_TRUE(r.load.delivery.clean()) << r.load.delivery.summary();
    EXPECT_EQ(r.load.delivery.delivered,
              static_cast<std::uint64_t>(topo.numNodes()) * 10);
}

TEST(Batch, UnfinishedBatchReportsSaturated)
{
    FlattenedButterfly topo(8, 2);
    Valiant algo(topo);
    UniformRandom pattern(topo.numNodes());
    NetworkConfig netcfg;
    const auto r = runBatch(topo, algo, pattern, netcfg, 7, 10, 20);
    EXPECT_EQ(r.load.status, LoadPointStatus::kSaturated);
    EXPECT_TRUE(r.load.saturated);
    EXPECT_EQ(r.completionTime, 20u);
    // Throughput counts only the packets delivered by the cut-off.
    EXPECT_LT(r.load.measuredPackets,
              static_cast<std::uint64_t>(topo.numNodes()) * 10);
    EXPECT_DOUBLE_EQ(r.load.accepted,
                     static_cast<double>(r.load.measuredPackets) *
                         netcfg.packetSize / (topo.numNodes() * 20.0));
}

TEST(Batch, LargerBatchesAmortizeTransients)
{
    FlattenedButterfly topo(8, 2);
    Valiant algo(topo);
    AdversarialNeighbor wc(topo.numNodes(), topo.k());
    NetworkConfig netcfg;
    const auto small = runBatch(topo, algo, wc, netcfg, 7, 1);
    const auto large = runBatch(topo, algo, wc, netcfg, 7, 200);
    const double large_norm =
        normalizedLatency(large.completionTime, large.batchSize);
    EXPECT_GT(normalizedLatency(small.completionTime, small.batchSize),
              large_norm);
    // Large batches approach 1/throughput ~ 2.0 for VAL at 50%.
    EXPECT_NEAR(large_norm, 2.0, 0.5);
}

// --- The five LoadPointStatus exits and the NaN validity contract --

TEST(LoadPointStatus5, DeliveredReportsFullStatistics)
{
    Fixture f;
    const auto r = runLoadPoint(f.topo, f.algo, f.pattern, f.netcfg,
                                f.expcfg, 0.2);
    EXPECT_EQ(r.status, LoadPointStatus::kDelivered);
    EXPECT_TRUE(r.valid());
    EXPECT_TRUE(r.latencyValid());
    EXPECT_FALSE(std::isnan(r.accepted));
    EXPECT_FALSE(std::isnan(r.avgLatency));
    EXPECT_FALSE(std::isnan(r.avgNetworkLatency));
    EXPECT_FALSE(std::isnan(r.avgHops));
    EXPECT_FALSE(std::isnan(r.p99Latency));
    EXPECT_GT(r.measuredPackets, 0u);
    EXPECT_EQ(r.measuredDropped, 0u);
    EXPECT_TRUE(r.diagnostics.empty());
}

TEST(LoadPointStatus5, SaturatedIsValidButLatencyIsBiased)
{
    FlattenedButterfly topo(8, 2);
    MinAdaptive algo(topo);
    AdversarialNeighbor wc(topo.numNodes(), topo.k());
    ExperimentConfig expcfg;
    expcfg.warmupCycles = 200;
    expcfg.measureCycles = 200;
    expcfg.drainCycles = 400;
    NetworkConfig netcfg;
    const auto r = runLoadPoint(topo, algo, wc, netcfg, expcfg, 0.9);
    EXPECT_EQ(r.status, LoadPointStatus::kSaturated);
    EXPECT_TRUE(r.saturated);
    // Accepted throughput is a real observation (the window closed)…
    EXPECT_TRUE(r.valid());
    EXPECT_FALSE(std::isnan(r.accepted));
    // …but the latency sample only covers the survivors.
    EXPECT_FALSE(r.latencyValid());
}

TEST(LoadPointStatus5, UnreachableCountsDropsAndKeepsLatencyNaN)
{
    FlattenedButterfly topo(4, 2);
    DropAll algo;
    UniformRandom pattern(topo.numNodes());
    ExperimentConfig expcfg;
    expcfg.warmupCycles = 100;
    expcfg.measureCycles = 100;
    expcfg.drainCycles = 2000;
    NetworkConfig netcfg;
    netcfg.vcDepth = 8;
    const auto r = runLoadPoint(topo, algo, pattern, netcfg, expcfg,
                                0.2);
    EXPECT_EQ(r.status, LoadPointStatus::kUnreachable);
    EXPECT_STREQ(toString(r.status), "unreachable");
    EXPECT_FALSE(r.saturated);
    EXPECT_GT(r.measuredDropped, 0u);
    EXPECT_GT(r.flitsDropped, 0u);
    // Nothing was ever ejected: throughput is an exact 0, latency is
    // unknown — not a fake 0.0.
    EXPECT_TRUE(r.valid());
    EXPECT_EQ(r.accepted, 0.0);
    EXPECT_EQ(r.measuredPackets, 0u);
    EXPECT_FALSE(r.latencyValid());
    EXPECT_TRUE(std::isnan(r.avgLatency));
    EXPECT_TRUE(std::isnan(r.avgNetworkLatency));
    EXPECT_TRUE(std::isnan(r.avgHops));
    EXPECT_TRUE(std::isnan(r.p99Latency));
}

TEST(LoadPointStatus5, StallBeforeWindowClosesReportsNoThroughput)
{
    // RingForward deadlocks the credit loop during warmup: nothing
    // about the measurement window is known, so every statistic stays
    // NaN and valid() is false — the old behaviour reported a silent
    // accepted == 0.0 here.
    FlattenedButterfly topo(4, 2);
    RingForward algo(topo);
    UniformRandom pattern(topo.numNodes());
    ExperimentConfig expcfg;
    expcfg.warmupCycles = 3000;
    expcfg.measureCycles = 100;
    expcfg.drainCycles = 2000;
    NetworkConfig netcfg;
    netcfg.vcDepth = 4;
    netcfg.watchdogCycles = 100;
    const auto r = runLoadPoint(topo, algo, pattern, netcfg, expcfg,
                                1.0);
    EXPECT_EQ(r.status, LoadPointStatus::kStalled);
    EXPECT_STREQ(toString(r.status), "stalled");
    EXPECT_TRUE(r.saturated);
    EXPECT_FALSE(r.valid());
    EXPECT_TRUE(std::isnan(r.accepted));
    EXPECT_FALSE(r.latencyValid());
    EXPECT_TRUE(std::isnan(r.avgLatency));
    EXPECT_TRUE(std::isnan(r.p99Latency));
    EXPECT_FALSE(r.diagnostics.empty()); // stall dump
}

TEST(LoadPointStatus5, StallAfterWindowClosesKeepsThroughput)
{
    // Short phases + a patient watchdog: the deadlock is only
    // *detected* in the drain phase, after the measurement window
    // closed, so the (zero) accepted throughput is a real
    // observation and valid() holds.
    FlattenedButterfly topo(4, 2);
    RingForward algo(topo);
    UniformRandom pattern(topo.numNodes());
    ExperimentConfig expcfg;
    expcfg.warmupCycles = 30;
    expcfg.measureCycles = 30;
    expcfg.drainCycles = 20000;
    NetworkConfig netcfg;
    netcfg.vcDepth = 4;
    netcfg.watchdogCycles = 500;
    const auto r = runLoadPoint(topo, algo, pattern, netcfg, expcfg,
                                1.0);
    EXPECT_EQ(r.status, LoadPointStatus::kStalled);
    EXPECT_TRUE(r.saturated);
    EXPECT_TRUE(r.valid());
    EXPECT_EQ(r.accepted, 0.0); // nothing ever ejects
    EXPECT_FALSE(r.latencyValid());
    EXPECT_FALSE(r.diagnostics.empty());
}

TEST(LoadPointStatus5, InvalidConfigIsAllNaN)
{
    Fixture f;
    NetworkConfig bad = f.netcfg;
    bad.vcDepth = 0;
    const auto r = runLoadPoint(f.topo, f.algo, f.pattern, bad,
                                f.expcfg, 0.2);
    EXPECT_EQ(r.status, LoadPointStatus::kInvalidConfig);
    EXPECT_STREQ(toString(r.status), "invalid-config");
    EXPECT_FALSE(r.valid());
    EXPECT_FALSE(r.latencyValid());
    EXPECT_TRUE(std::isnan(r.accepted));
    EXPECT_TRUE(std::isnan(r.avgLatency));
    EXPECT_TRUE(std::isnan(r.avgNetworkLatency));
    EXPECT_TRUE(std::isnan(r.avgHops));
    EXPECT_TRUE(std::isnan(r.p99Latency));
    EXPECT_EQ(r.measuredPackets, 0u);
    EXPECT_FALSE(r.diagnostics.empty()); // validation report
}

} // namespace
} // namespace fbfly
