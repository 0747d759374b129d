/**
 * @file
 * Tests for the parallel sweep engine (harness/sweep.h) and the JSON
 * result writer (harness/result_writer.h): the determinism contract
 * (thread-count independence), splitmix64 seed derivation and
 * decorrelation, thread-pool behavior, and the fbfly-sweep-v1
 * document shape.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "harness/result_writer.h"
#include "harness/sweep.h"
#include "routing/min_adaptive.h"
#include "routing/valiant.h"
#include "topology/flattened_butterfly.h"
#include "traffic/traffic_pattern.h"

namespace fbfly
{
namespace
{

// ---------------------------------------------------------------------
// Seed derivation
// ---------------------------------------------------------------------

TEST(DerivePointSeed, AdjacentIndicesDecorrelated)
{
    const std::uint64_t master = 2007;
    std::set<std::uint64_t> seen;
    for (std::uint64_t i = 0; i < 1000; ++i)
        seen.insert(derivePointSeed(master, i));
    EXPECT_EQ(seen.size(), 1000u); // no collisions

    // Avalanche: one index step flips roughly half the output bits.
    int total = 0;
    for (std::uint64_t i = 0; i < 64; ++i) {
        total += std::popcount(derivePointSeed(master, i) ^
                               derivePointSeed(master, i + 1));
    }
    const double avg = total / 64.0;
    EXPECT_GT(avg, 24.0);
    EXPECT_LT(avg, 40.0);
}

TEST(DerivePointSeed, PureFunctionOfBothArguments)
{
    EXPECT_EQ(derivePointSeed(1, 7), derivePointSeed(1, 7));
    EXPECT_NE(derivePointSeed(1, 7), derivePointSeed(2, 7));
    EXPECT_NE(derivePointSeed(1, 7), derivePointSeed(1, 8));
    // The derivation never degenerates to the master seed itself.
    EXPECT_NE(derivePointSeed(1, 0), 1u);
}

// ---------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------

TEST(ThreadPool, RunsEveryJobExactlyOnce)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.numThreads(), 4);
    std::atomic<int> counter{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&counter] { ++counter; });
    pool.wait();
    EXPECT_EQ(counter.load(), 100);

    // The pool is reusable after wait().
    pool.submit([&counter] { counter += 10; });
    pool.wait();
    EXPECT_EQ(counter.load(), 110);
}

TEST(ThreadPool, PropagatesFirstException)
{
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    pool.submit([] { throw std::runtime_error("boom"); });
    for (int i = 0; i < 10; ++i)
        pool.submit([&ran] { ++ran; });
    EXPECT_THROW(pool.wait(), std::runtime_error);
    // The remaining jobs still ran, and the error slot is cleared.
    EXPECT_EQ(ran.load(), 10);
    pool.submit([&ran] { ++ran; });
    EXPECT_NO_THROW(pool.wait());
    EXPECT_EQ(ran.load(), 11);
}

TEST(ThreadPool, ResolveThreads)
{
    EXPECT_EQ(ThreadPool::resolveThreads(3), 3);
    EXPECT_GE(ThreadPool::resolveThreads(0), 1);
    EXPECT_GE(ThreadPool::resolveThreads(-5), 1);
}

// ---------------------------------------------------------------------
// SweepEngine determinism contract
// ---------------------------------------------------------------------

struct SweepFixture
{
    SweepFixture()
        : topo(8, 2), min_ad(topo), val(topo),
          pattern(topo.numNodes())
    {
        expcfg.warmupCycles = 200;
        expcfg.measureCycles = 300;
        expcfg.drainCycles = 1500;
        netcfg.vcDepth = 8;
    }

    /** Queue the same fig04-style mini sweep on @p engine. */
    void queue(SweepEngine &engine)
    {
        engine.addLoadSweep("mini MIN AD", topo, min_ad, pattern,
                            netcfg, expcfg, {0.1, 0.3, 0.5, 0.7});
        engine.addLoadSweep("mini VAL", topo, val, pattern, netcfg,
                            expcfg, {0.1, 0.2, 0.4});
        engine.addBatch("mini batch VAL", topo, val, pattern, netcfg,
                        20);
    }

    FlattenedButterfly topo;
    MinAdaptive min_ad;
    Valiant val;
    UniformRandom pattern;
    NetworkConfig netcfg;
    ExperimentConfig expcfg;
};

/** Every simulation field must match bit for bit (wall time and
 *  scheduling are the only things allowed to differ). */
void
expectIdentical(const SweepPointRecord &a, const SweepPointRecord &b)
{
    ASSERT_EQ(a.index, b.index);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.series, b.series);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.batchSize, b.batchSize);
    EXPECT_EQ(a.completionTime, b.completionTime);
    const LoadPointResult &x = a.load;
    const LoadPointResult &y = b.load;
    EXPECT_EQ(x.offered, y.offered);
    EXPECT_EQ(x.accepted, y.accepted);
    EXPECT_EQ(x.avgLatency, y.avgLatency);
    EXPECT_EQ(x.avgNetworkLatency, y.avgNetworkLatency);
    EXPECT_EQ(x.avgHops, y.avgHops);
    EXPECT_EQ(x.p99Latency, y.p99Latency);
    EXPECT_EQ(x.saturated, y.saturated);
    EXPECT_EQ(x.status, y.status);
    EXPECT_EQ(x.measuredPackets, y.measuredPackets);
    EXPECT_EQ(x.measuredDropped, y.measuredDropped);
    EXPECT_EQ(x.flitsDropped, y.flitsDropped);
}

TEST(SweepEngine, ThreadCountDoesNotChangeResults)
{
    SweepFixture f;

    SweepConfig serial;
    serial.threads = 1;
    serial.masterSeed = 2007;
    SweepEngine one(serial);
    f.queue(one);

    SweepConfig parallel = serial;
    parallel.threads = 4;
    SweepEngine four(parallel);
    f.queue(four);

    const auto &ra = one.run();
    const auto &rb = four.run();
    ASSERT_EQ(ra.size(), rb.size());
    EXPECT_EQ(four.threads(), 4);
    for (std::size_t i = 0; i < ra.size(); ++i)
        expectIdentical(ra[i], rb[i]);
}

TEST(SweepEngine, RecordsKeepQueueOrderAndMetadata)
{
    SweepFixture f;
    SweepConfig cfg;
    cfg.threads = 2;
    cfg.masterSeed = 42;
    SweepEngine engine(cfg);
    f.queue(engine);
    const auto &recs = engine.run();
    ASSERT_EQ(recs.size(), 8u);
    for (std::size_t i = 0; i < recs.size(); ++i) {
        EXPECT_EQ(recs[i].index, i);
        EXPECT_EQ(recs[i].seed, derivePointSeed(42, i));
        EXPECT_FALSE(recs[i].topology.empty());
        EXPECT_FALSE(recs[i].routing.empty());
        EXPECT_FALSE(recs[i].traffic.empty());
        EXPECT_GE(recs[i].wallSeconds, 0.0);
    }
    EXPECT_EQ(recs[0].kind, SweepPointKind::kLoadPoint);
    EXPECT_EQ(recs[7].kind, SweepPointKind::kBatch);
    EXPECT_EQ(recs[0].load.offered, 0.1);
    EXPECT_EQ(recs[3].load.offered, 0.7);
    EXPECT_GT(engine.totalWallSeconds(), 0.0);
    EXPECT_GE(engine.pointWallSecondsSum(),
              engine.totalWallSeconds() * 0.5);
}

// ---------------------------------------------------------------------
// Seed independence of sweep points
// ---------------------------------------------------------------------

TEST(SweepEngine, AdjacentPointsGetIndependentStreams)
{
    // Two points at the same offered load, adjacent indices: with
    // decorrelated injection/RNG streams they must not produce the
    // same sampled statistics.
    SweepFixture f;
    SweepConfig cfg;
    cfg.threads = 2;
    cfg.masterSeed = 7;
    SweepEngine engine(cfg);
    engine.addLoadPoint("a", f.topo, f.min_ad, f.pattern, f.netcfg,
                        f.expcfg, 0.4);
    engine.addLoadPoint("b", f.topo, f.min_ad, f.pattern, f.netcfg,
                        f.expcfg, 0.4);
    const auto &recs = engine.run();
    ASSERT_EQ(recs.size(), 2u);
    EXPECT_NE(recs[0].seed, recs[1].seed);
    EXPECT_NE(recs[0].load.avgLatency, recs[1].load.avgLatency);
}

TEST(SweepEngine, PointRerunAloneReproducesInSweepResult)
{
    // The per-point seed depends only on (masterSeed, index), so the
    // same point run outside the engine with the derived seed must
    // match its in-sweep record exactly.
    SweepFixture f;
    SweepConfig cfg;
    cfg.threads = 3;
    cfg.masterSeed = 2007;
    SweepEngine engine(cfg);
    f.queue(engine);
    const auto &recs = engine.run();

    const std::size_t i = 2; // MIN AD @ 0.5
    ExperimentConfig solo = f.expcfg;
    solo.seed = derivePointSeed(2007, i);
    const LoadPointResult alone = runLoadPoint(
        f.topo, f.min_ad, f.pattern, f.netcfg, solo, 0.5);
    EXPECT_EQ(alone.accepted, recs[i].load.accepted);
    EXPECT_EQ(alone.avgLatency, recs[i].load.avgLatency);
    EXPECT_EQ(alone.avgHops, recs[i].load.avgHops);
    EXPECT_EQ(alone.p99Latency, recs[i].load.p99Latency);
    EXPECT_EQ(alone.measuredPackets, recs[i].load.measuredPackets);

    // And the batch point likewise.
    const std::size_t bi = 7;
    const BatchResult batchAlone =
        runBatch(f.topo, f.val, f.pattern, f.netcfg,
                 derivePointSeed(2007, bi), 20);
    EXPECT_EQ(batchAlone.completionTime, recs[bi].completionTime);
    EXPECT_EQ(batchAlone.load.accepted, recs[bi].load.accepted);
}

// ---------------------------------------------------------------------
// JSON result writer
// ---------------------------------------------------------------------

TEST(ResultWriter, EmitsSchemaStatusAndNullForNaN)
{
    SweepPointRecord ok;
    ok.index = 0;
    ok.kind = SweepPointKind::kLoadPoint;
    ok.series = "s \"quoted\"";
    ok.topology = "t";
    ok.routing = "r";
    ok.traffic = "u";
    ok.seed = 99;
    ok.wallSeconds = 0.25;
    ok.load.offered = 0.5;
    ok.load.accepted = 0.5;
    ok.load.avgLatency = 3.5;
    ok.load.avgNetworkLatency = 2.5;
    ok.load.avgHops = 1.5;
    ok.load.p99Latency = 9.0;
    ok.load.measuredPackets = 10;

    SweepPointRecord bad = ok;
    bad.index = 1;
    bad.series = "invalid";
    bad.load = LoadPointResult{};
    bad.load.status = LoadPointStatus::kInvalidConfig;

    SweepRunMeta meta;
    meta.bench = "unit";
    meta.description = "desc";
    meta.extra = {{"key", "value"}};

    const std::string doc =
        sweepResultsToJson(meta, {ok, bad}, 2007, 4, 1.5);

    EXPECT_NE(doc.find("\"schema\": \"fbfly-sweep-v1\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"bench\": \"unit\""), std::string::npos);
    EXPECT_NE(doc.find("\"threads\": 4"), std::string::npos);
    EXPECT_NE(doc.find("\"seed\": 2007"), std::string::npos);
    EXPECT_NE(doc.find("\"key\": \"value\""), std::string::npos);
    EXPECT_NE(doc.find("\"status\": \"delivered\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"status\": \"invalid-config\""),
              std::string::npos);
    // Escaping.
    EXPECT_NE(doc.find("s \\\"quoted\\\""), std::string::npos);
    // The invalid point's unknown statistics serialize as null, and
    // its validity is spelled out.
    EXPECT_NE(doc.find("\"accepted\": null"), std::string::npos);
    EXPECT_NE(doc.find("\"valid\": false"), std::string::npos);
    EXPECT_NE(doc.find("\"valid\": true"), std::string::npos);
    // No bare NaN token anywhere (JSON parsers reject it).
    EXPECT_EQ(doc.find("nan"), std::string::npos);
    // git describe is present (any value).
    EXPECT_NE(doc.find("\"git\": \""), std::string::npos);
}

TEST(ResultWriter, WritesFileForCompletedEngine)
{
    SweepFixture f;
    SweepConfig cfg;
    cfg.threads = 2;
    cfg.masterSeed = 5;
    SweepEngine engine(cfg);
    engine.addLoadPoint("pt", f.topo, f.min_ad, f.pattern, f.netcfg,
                        f.expcfg, 0.3);
    engine.run();

    const std::string path =
        testing::TempDir() + "fbfly_sweep_test.json";
    SweepRunMeta meta;
    meta.bench = "unit_file";
    ASSERT_TRUE(writeSweepResults(path, meta, engine.records(),
                                  engine.masterSeed(), engine.threads(),
                                  engine.totalWallSeconds()));

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string doc = ss.str();
    EXPECT_NE(doc.find("fbfly-sweep-v1"), std::string::npos);
    EXPECT_NE(doc.find("\"bench\": \"unit_file\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"offered\": 0.3"), std::string::npos);
    std::remove(path.c_str());
}

TEST(ResultWriter, FailsGracefullyOnBadPath)
{
    SweepRunMeta meta;
    meta.bench = "x";
    EXPECT_FALSE(writeSweepResults(
        "/nonexistent-dir-xyz/out.json", meta, {}, 1, 1, 0.0));
}

} // namespace
} // namespace fbfly
