/**
 * @file
 * Shard-determinism suite for the step engine (docs/DESIGN.md "Step
 * engine").
 *
 * The engine's contract is exact: `NetworkConfig::shards` is a
 * performance knob, never a semantics knob.  Every observable —
 * trace text, counters, per-arc flit counts, metrics registries,
 * latency doubles, full sweep JSON, liveness diagnoses — must be
 * bit-identical at any shard count, because all cross-shard
 * interaction flows through >= 1-cycle channels and the commit phase
 * replays staged effects in the order one shard produces them
 * directly.
 *
 * Concretely, this suite replays the committed golden-trace,
 * idle-equivalence and fault+churn fixtures at --shards 2 and 8
 * (golden and fault+churn at 1 too) and requires them to pass byte
 * for byte WITHOUT regeneration, then pins 1-vs-2-vs-8
 * equality on a wider 8-router scenario (1- and 4-flit packets,
 * partly measured under a delivery oracle), a full sweep JSON
 * document, a churn (dynamic-service) run and a deadlock-recovery
 * run, and checks that reliable links run on one shard.  The
 * TSan CI leg runs the whole suite to prove the phase workers are
 * race-free.
 *
 * The memory-lean side of the same PR is covered by the peak-RSS
 * gauge test on a 32k-terminal 32-ary 3-flat (slow label; skipped
 * under sanitizers, whose shadow memory makes RSS meaningless).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/rss.h"
#include "fault/churn_model.h"
#include "fault/error_model.h"
#include "fixture_scenarios.h"
#include "harness/churn.h"
#include "harness/experiment.h"
#include "harness/result_writer.h"
#include "network/network.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "routing/min_adaptive.h"
#include "routing/routing.h"
#include "routing/ugal.h"
#include "sim/delivery_oracle.h"
#include "sim/liveness.h"
#include "topology/flattened_butterfly.h"
#include "topology/topology.h"
#include "traffic/injection.h"
#include "traffic/traffic_pattern.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define FBFLY_UNDER_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define FBFLY_UNDER_SANITIZER 1
#endif
#endif

namespace fbfly
{
namespace
{

using fixtures::canonicalSweepText;
using fixtures::kBurstyFixture;
using fixtures::kFaultChurnFixture;
using fixtures::kGoldenFixture;
using fixtures::kSweepFixture;
using fixtures::readFixture;
using fixtures::runBurstyScenario;
using fixtures::runFaultChurnScenario;
using fixtures::runGoldenScenario;
using fixtures::runIdleSweep;

// ---------------------------------------------------------------------
// Committed fixtures replayed at --shards N, no regeneration
// ---------------------------------------------------------------------

TEST(ShardDeterminism, GoldenTraceFixtureByteIdenticalAtAnyShardCount)
{
    const std::string expected = readFixture(kGoldenFixture);
    ASSERT_FALSE(expected.empty());
    for (const int shards : {1, 2, 8}) {
        SCOPED_TRACE("shards " + std::to_string(shards));
        EXPECT_EQ(runGoldenScenario(shards), expected);
    }
}

TEST(ShardDeterminism, BurstyFixtureByteIdenticalAtAnyShardCount)
{
    const std::string expected = readFixture(kBurstyFixture);
    ASSERT_FALSE(expected.empty());
    for (const int shards : {2, 8}) {
        SCOPED_TRACE("shards " + std::to_string(shards));
        EXPECT_EQ(runBurstyScenario(shards), expected);
    }
}

TEST(ShardDeterminism, FaultChurnFixtureByteIdenticalAtAnyShardCount)
{
    const std::string expected = readFixture(kFaultChurnFixture);
    ASSERT_FALSE(expected.empty());
    for (const int shards : {1, 2, 8}) {
        SCOPED_TRACE("shards " + std::to_string(shards));
        EXPECT_EQ(runFaultChurnScenario(shards), expected);
    }
}

TEST(ShardDeterminism, IdleSweepFixtureByteIdenticalAtAnyShardCount)
{
    const std::string expected = readFixture(kSweepFixture);
    ASSERT_FALSE(expected.empty());
    for (const int shards : {2, 8}) {
        SCOPED_TRACE("shards " + std::to_string(shards));
        EXPECT_EQ(canonicalSweepText(runIdleSweep(1, shards)),
                  expected);
    }
}

// ---------------------------------------------------------------------
// Wider traced scenario: 8 routers, real cross-shard traffic
// ---------------------------------------------------------------------

/** A traced UGAL run on the 8-ary 2-flat (64 nodes, 8 routers):
 *  unlike the 2-router golden scenario, 8 shards here put every
 *  router in its own shard, so every inter-router arc is a
 *  cross-shard channel.  The middle third of the injection window is
 *  measured under a DeliveryOracle, so the measured inject/eject
 *  replay (oracle callbacks, Welford latency/hop adds) is pinned
 *  along with the trace; with @p packet_size > 1 terminals stay
 *  mid-packet across cycles, exercising the wormhole stat deltas. */
std::string
runEightRouterScenario(int shards, int packet_size)
{
    FlattenedButterfly topo(8, 2);
    Ugal algo(topo, false);
    UniformRandom pattern(topo.numNodes());

    TraceSink sink(1 << 18);
    sink.setLevel(TraceLevel::kFull);
    DeliveryOracle oracle;

    NetworkConfig cfg;
    cfg.numVcs = algo.numVcs();
    cfg.vcDepth = 4;
    cfg.packetSize = packet_size;
    cfg.seed = 2007;
    cfg.trace = &sink;
    cfg.oracle = &oracle;
    cfg.shards = shards;

    Network net(topo, algo, &pattern, cfg);
    EXPECT_EQ(net.shardCount(), shards);
    BernoulliInjection inj(0.3, packet_size, 7);
    for (int c = 0; c < 300; ++c) {
        inj.tick(net, c >= 100 && c < 200);
        net.step();
    }
    for (int c = 0; c < 2000 && !net.quiescent(); ++c)
        net.step();
    EXPECT_TRUE(net.quiescent());
    EXPECT_EQ(net.checkInvariants(), "");
    EXPECT_EQ(sink.droppedRecords(), 0u)
        << "ring overflowed; enlarge the sink";

    const NetworkStats &s = net.stats();
    EXPECT_GT(s.measuredEjected, 0u);
    EXPECT_EQ(s.measuredEjected, s.measuredCreated);
    EXPECT_EQ(s.flitsEjected,
              s.packetsEjected * static_cast<std::uint64_t>(packet_size));
    const OracleReport verdict = oracle.report(s.measuredDropped);
    EXPECT_TRUE(verdict.clean()) << verdict.summary();

    std::ostringstream os;
    os << sink.toText();
    fixtures::dumpNetworkState(os, net);
    os << "oracle " << verdict.summary() << "\n"
       << std::hexfloat << "packetLatency " << s.packetLatency.mean()
       << " " << s.packetLatency.variance() << "\n"
       << "networkLatency " << s.networkLatency.mean() << " "
       << s.networkLatency.variance() << "\n"
       << "hops " << s.hops.mean() << " " << s.hops.variance() << "\n";
    return os.str();
}

/** "" when @p got equals @p want, else the first differing line.
 *  (gtest's diff of two multi-megabyte texts would exhaust memory.) */
std::string
firstDifference(const std::string &want, const std::string &got)
{
    std::istringstream w(want), g(got);
    std::string wl, gl;
    for (int line = 1;; ++line) {
        const bool wok = static_cast<bool>(std::getline(w, wl));
        const bool gok = static_cast<bool>(std::getline(g, gl));
        if (!wok && !gok)
            return "";
        if (wok != gok || wl != gl) {
            return "line " + std::to_string(line) + ": want '" +
                   (wok ? wl : "<end>") + "', got '" +
                   (gok ? gl : "<end>") + "'";
        }
    }
}

TEST(ShardDeterminism, EightRouterTraceIdenticalAcrossShardCounts)
{
    for (const int packet_size : {1, 4}) {
        SCOPED_TRACE("packet size " + std::to_string(packet_size));
        const std::string one = runEightRouterScenario(1, packet_size);
        ASSERT_FALSE(one.empty());
        for (const int shards : {2, 8}) {
            SCOPED_TRACE("shards " + std::to_string(shards));
            EXPECT_EQ(firstDifference(
                          one, runEightRouterScenario(shards, packet_size)),
                      "");
        }
    }
}

TEST(ShardDeterminism, ShardCountClampsToRouterCount)
{
    FlattenedButterfly topo(2, 2); // 2 routers
    Ugal algo(topo, false);
    NetworkConfig cfg;
    cfg.numVcs = algo.numVcs();
    cfg.shards = 8;
    Network net(topo, algo, nullptr, cfg);
    EXPECT_EQ(net.shardCount(), 2);
}

/** Reliable links (link retry, explicit or implied by an error
 *  model) run on one shard, and the constructor says so once. */
TEST(ShardDeterminism, ReliableLinksRunOnOneShard)
{
    FlattenedButterfly topo(4, 2); // 4 routers
    MinAdaptive algo(topo);
    ErrorModelConfig ecfg;
    ecfg.corruptRate = 0.01;
    ErrorModel errors(topo, ecfg);
    for (const bool via_errors : {false, true}) {
        SCOPED_TRACE(via_errors ? "error model" : "linkRetry.enabled");
        NetworkConfig cfg;
        cfg.numVcs = algo.numVcs();
        cfg.shards = 4;
        if (via_errors)
            cfg.errors = &errors;
        else
            cfg.linkRetry.enabled = true;
        testing::internal::CaptureStderr();
        const Network net(topo, algo, nullptr, cfg);
        const std::string err = testing::internal::GetCapturedStderr();
        EXPECT_EQ(net.shardCount(), 1);
        EXPECT_NE(err.find("requested 4 shards, running 1"),
                  std::string::npos)
            << err;
        EXPECT_EQ(err.find("warn:"), err.rfind("warn:"))
            << "more than one warning: " << err;
    }

    // A one-shard request on reliable links is not a fallback.
    NetworkConfig quiet;
    quiet.numVcs = algo.numVcs();
    quiet.linkRetry.enabled = true;
    testing::internal::CaptureStderr();
    const Network net(topo, algo, nullptr, quiet);
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
    EXPECT_EQ(net.shardCount(), 1);
}

// ---------------------------------------------------------------------
// Full sweep document: metrics registries and JSON text
// ---------------------------------------------------------------------

/** Render records as a full fbfly-sweep-v1 document with the
 *  wall-clock fields zeroed (the only legitimately nondeterministic
 *  bytes). */
std::string
sweepJsonZeroWall(std::vector<SweepPointRecord> recs)
{
    for (SweepPointRecord &r : recs)
        r.wallSeconds = 0.0;
    SweepRunMeta meta;
    meta.bench = "shard_determinism";
    meta.description = "sweep JSON identity across shard counts";
    return sweepResultsToJson(meta, recs, 2007, 1, 0.0);
}

TEST(ShardDeterminism, SweepJsonAndMetricsIdenticalAcrossShardCounts)
{
    const std::vector<SweepPointRecord> one = runIdleSweep(1, 1);
    const std::vector<SweepPointRecord> two = runIdleSweep(1, 2);
    const std::vector<SweepPointRecord> eight = runIdleSweep(1, 8);
    ASSERT_EQ(one.size(), 2u);
    ASSERT_EQ(two.size(), 2u);
    ASSERT_EQ(eight.size(), 2u);

    for (std::size_t i = 0; i < one.size(); ++i) {
        SCOPED_TRACE("point " + std::to_string(i));
        const LoadPointResult &a = one[i].load;
        for (const auto *b : {&two[i].load, &eight[i].load}) {
            // Doubles compared exactly: the commit phase replays
            // measured ejections in the sequential order, so even
            // Welford means are bit-identical.
            EXPECT_EQ(a.accepted, b->accepted);
            EXPECT_EQ(a.avgLatency, b->avgLatency);
            EXPECT_EQ(a.avgNetworkLatency, b->avgNetworkLatency);
            EXPECT_EQ(a.avgHops, b->avgHops);
            EXPECT_EQ(a.p99Latency, b->p99Latency);
            ASSERT_NE(a.metrics, nullptr);
            ASSERT_NE(b->metrics, nullptr);
            EXPECT_TRUE(*a.metrics == *b->metrics)
                << "MetricsRegistry diverged between shard counts";
        }
    }

    const std::string doc = sweepJsonZeroWall(one);
    EXPECT_EQ(sweepJsonZeroWall(two), doc);
    EXPECT_EQ(sweepJsonZeroWall(eight), doc);
}

// ---------------------------------------------------------------------
// Dynamic service (churn) and liveness recovery
// ---------------------------------------------------------------------

TEST(ShardDeterminism, ChurnRunIdenticalAcrossShardCounts)
{
    FlattenedButterfly topo(4, 2);
    UniformRandom pattern(topo.numNodes());

    ChurnRunConfig run;
    run.expcfg.warmupCycles = 200;
    run.expcfg.measureCycles = 3000;
    run.expcfg.drainCycles = 50000;
    run.expcfg.seed = 2007;
    run.baseLoad = 0.1;
    run.peakLoad = 0.3;
    run.diurnalPeriod = 1000;
    run.epochCycles = 500; // exercise routing adaptation + pins

    ChurnConfig cc;
    cc.linkMtbf = 800;
    cc.linkMttr = 200;
    cc.horizon = run.expcfg.warmupCycles + run.expcfg.measureCycles;
    cc.seed = 13;
    const ChurnModel model(topo, cc);

    auto runAt = [&](int shards) {
        NetworkConfig netcfg;
        netcfg.vcDepth = 4;
        netcfg.shards = shards;
        netcfg.watchdogCycles = 50000;
        return runChurnPoint(topo, pattern, &model, netcfg, run);
    };

    const ChurnPointResult one = runAt(1);
    EXPECT_GT(one.churn.downEvents, 0u);
    for (const int shards : {2, 4}) {
        SCOPED_TRACE("shards " + std::to_string(shards));
        const ChurnPointResult other = runAt(shards);
        EXPECT_EQ(other.load.status, one.load.status);
        EXPECT_EQ(other.load.accepted, one.load.accepted);
        EXPECT_EQ(other.load.avgLatency, one.load.avgLatency);
        EXPECT_EQ(other.load.measuredPackets,
                  one.load.measuredPackets);
        EXPECT_EQ(other.load.flitsDropped, one.load.flitsDropped);
        EXPECT_EQ(other.load.measuredDropped,
                  one.load.measuredDropped);
        // The whole churn extension block (events, losses, epochs,
        // switches, pins, p99.9, recovery times) as one string.
        EXPECT_EQ(churnExtraJson(cc, other.churn),
                  churnExtraJson(cc, one.churn));
    }
}

/** Test-only routing that walks the router ring r -> r+1 -> ... —
 *  with one VC and packetSize > vcDepth, packets two ring hops
 *  apart form the textbook credit cycle (tests/test_liveness.cc). */
class ShardRingRouting : public RoutingAlgorithm
{
  public:
    explicit ShardRingRouting(const Topology &topo) : topo_(topo)
    {
        const int R = topo.numRouters();
        next_.assign(static_cast<std::size_t>(R), kInvalid);
        for (const Topology::Arc &a : topo.arcs())
            if (a.dst == (a.src + 1) % R)
                next_[static_cast<std::size_t>(a.src)] = a.srcPort;
    }

    std::string name() const override { return "TEST-RING"; }
    int numVcs() const override { return 1; }

    RouteDecision route(Router &router, Flit &f) override
    {
        const RouterId r = router.id();
        if (topo_.ejectionRouter(f.dst) == r)
            return {topo_.ejectionPort(f.dst), 0, false};
        return {next_[static_cast<std::size_t>(r)], 0, false};
    }

    bool preservesFlowOrder() const override { return true; }

  private:
    const Topology &topo_;
    std::vector<PortId> next_;
};

TEST(ShardDeterminism, LivenessRecoveryIdenticalAcrossShardCounts)
{
    // The deadlock-prone ring scenario driven end to end through
    // runLoadPoint: the watchdog, the stall classifier and the
    // kill-victim recovery all run in the serial portion of the
    // cycle, so their diagnoses must not depend on the shard count.
    FlattenedButterfly topo(4, 2);
    ShardRingRouting algo(topo);
    AdversarialNeighbor pattern(topo.numNodes(), 4, 2);

    ExperimentConfig expcfg;
    expcfg.warmupCycles = 0;
    expcfg.measureCycles = 40;
    expcfg.drainCycles = 200000;
    expcfg.seed = 7;
    expcfg.liveness.policy = RecoveryPolicy::kKillVictim;
    expcfg.liveness.maxRecoveries = 100000;

    auto runAt = [&](int shards) {
        NetworkConfig netcfg;
        netcfg.vcDepth = 2;
        netcfg.packetSize = 8;
        netcfg.watchdogCycles = 100;
        netcfg.shards = shards;
        return runLoadPoint(topo, algo, pattern, netcfg, expcfg,
                            0.25);
    };

    const LoadPointResult one = runAt(1);
    ASSERT_EQ(one.status, LoadPointStatus::kDeadlockRecovered)
        << toString(one.status) << "\n"
        << one.diagnostics;
    for (const int shards : {2, 4}) {
        SCOPED_TRACE("shards " + std::to_string(shards));
        const LoadPointResult other = runAt(shards);
        EXPECT_EQ(other.status, one.status);
        EXPECT_EQ(other.recoveries, one.recoveries);
        EXPECT_EQ(other.measuredPackets, one.measuredPackets);
        EXPECT_EQ(other.measuredDropped, one.measuredDropped);
        EXPECT_EQ(other.liveness, one.liveness)
            << "structured liveness JSON diverged";
    }
}

// ---------------------------------------------------------------------
// Memory-lean scale: peak-RSS gauge on a 32k-terminal point
// ---------------------------------------------------------------------

TEST(ShardDeterminism, PeakRssPerTerminalBoundedAt32kTerminals)
{
#ifdef FBFLY_UNDER_SANITIZER
    GTEST_SKIP() << "sanitizer shadow memory makes RSS meaningless";
#else
    // 32-ary 3-flat: 32768 terminals, 1024 routers.  The pooled
    // channel/VC state and hierarchical stats must keep the whole
    // simulator under 16 KiB per terminal — the budget that lets a
    // ~10^5-terminal k-ary n-flat fit on a laptop (bench/xscale).
    FlattenedButterfly topo(32, 3);
    MinAdaptive algo(topo);
    NetworkConfig cfg;
    cfg.numVcs = algo.numVcs();
    cfg.vcDepth = 4;
    cfg.shards = 8;
    Network net(topo, algo, nullptr, cfg);
    ASSERT_EQ(net.shardCount(), 8);

    // Cross-shard traffic through the phased engine, then drain.
    const NodeId n = static_cast<NodeId>(net.numNodes());
    for (int c = 0; c < 64; ++c) {
        const NodeId src = static_cast<NodeId>((c * 977) % n);
        NodeId dst = static_cast<NodeId>((c * 557 + n / 2) % n);
        if (dst == src)
            dst = static_cast<NodeId>((dst + 1) % n);
        net.terminal(src).enqueuePacket(net.now(), dst, false);
        net.step();
    }
    for (int c = 0; c < 5000 && !net.quiescent(); ++c)
        net.step();
    EXPECT_TRUE(net.quiescent());
    EXPECT_EQ(net.checkInvariants(), "");

    const std::uint64_t rss = peakRssBytes();
    ASSERT_GT(rss, 0u) << "peak-RSS gauge unavailable";
    const double per_terminal =
        static_cast<double>(rss) / static_cast<double>(n);
    EXPECT_LT(per_terminal, 16.0 * 1024.0)
        << "peak RSS " << rss << " bytes = " << per_terminal
        << " bytes/terminal";
#endif
}

} // namespace
} // namespace fbfly
