/**
 * @file
 * Pinned fixture scenarios shared by the golden-trace,
 * idle-equivalence and shard-determinism suites.
 *
 * Every helper here produces integer-only canonical text (trace
 * text, counters, per-arc flit counts) that is byte-identical across
 * platforms, optimization levels and sanitizers, and is compared
 * against a committed fixture under tests/data/.  Each scenario
 * takes a `shards` parameter (NetworkConfig::shards) precisely so
 * the shard-determinism suite can assert that the step engine
 * reproduces the committed fixtures byte for byte at any shard count
 * WITHOUT regeneration — the contract of docs/DESIGN.md "Step
 * engine".
 *
 * Any change to a scenario invalidates its fixture — bump the
 * fixture file name if the scenario itself must evolve.  Regenerate
 * with
 *
 *     FBFLY_REGEN_GOLDEN=1 ./fbfly_tests --gtest_filter='<suite>*'
 *
 * and commit the new fixture together with an explanation of why the
 * schedule changed.
 */

#ifndef FBFLY_TESTS_FIXTURE_SCENARIOS_H
#define FBFLY_TESTS_FIXTURE_SCENARIOS_H

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fault/error_model.h"
#include "harness/sweep.h"
#include "network/network.h"
#include "obs/trace.h"
#include "routing/min_adaptive.h"
#include "routing/ugal.h"
#include "topology/flattened_butterfly.h"
#include "traffic/injection.h"
#include "traffic/traffic_pattern.h"

namespace fbfly
{
namespace fixtures
{

#ifndef FBFLY_TEST_DATA_DIR
#error "FBFLY_TEST_DATA_DIR must be defined by the build"
#endif

inline const char *const kGoldenFixture =
    FBFLY_TEST_DATA_DIR "/golden_trace_2ary2flat_ugal.txt";
inline const char *const kBurstyFixture =
    FBFLY_TEST_DATA_DIR "/idle_equivalence_bursty.txt";
inline const char *const kSweepFixture =
    FBFLY_TEST_DATA_DIR "/idle_equivalence_sweep.txt";

/** Read a committed fixture in full ("" + test failure if absent). */
inline std::string
readFixture(const char *path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        ADD_FAILURE() << "missing fixture " << path
                      << " — run with FBFLY_REGEN_GOLDEN=1 to "
                         "create it";
        return std::string();
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/**
 * The pinned golden scenario (tests/test_golden_trace.cc): a tiny,
 * fully pinned UGAL run on the 2-ary 2-flat whose canonical trace
 * text must stay byte-identical to kGoldenFixture.
 */
inline std::string
runGoldenScenario(int shards = 1)
{
    FlattenedButterfly topo(2, 2); // 4 nodes, 2 routers
    Ugal algo(topo, false);
    UniformRandom pattern(topo.numNodes());

    TraceSink sink(1 << 14);
    sink.setLevel(TraceLevel::kFull);

    NetworkConfig cfg;
    cfg.numVcs = algo.numVcs();
    cfg.vcDepth = 4;
    cfg.seed = 2007; // ISCA'07
    cfg.trace = &sink;
    cfg.shards = shards;

    Network net(topo, algo, &pattern, cfg);
    BernoulliInjection inj(0.3, 1, 7);
    for (int c = 0; c < 100; ++c) {
        inj.tick(net, false);
        net.step();
    }
    EXPECT_EQ(sink.droppedRecords(), 0u)
        << "golden ring overflowed; enlarge the sink";
    return sink.toText();
}

/** Append the integer-only observable state of @p net to @p os. */
inline void
dumpNetworkState(std::ostringstream &os, const Network &net)
{
    const NetworkStats &s = net.stats();
    os << "now " << net.now() << "\n"
       << "quiescent " << (net.quiescent() ? 1 : 0) << "\n"
       << "flitsInjected " << s.flitsInjected << "\n"
       << "flitsEjected " << s.flitsEjected << "\n"
       << "hopsEjected " << s.hopsEjected << "\n"
       << "packetsEjected " << s.packetsEjected << "\n"
       << "measuredCreated " << s.measuredCreated << "\n"
       << "measuredEjected " << s.measuredEjected << "\n"
       << "flitsDropped " << s.flitsDropped << "\n"
       << "packetsUnreachable " << s.packetsUnreachable << "\n"
       << "measuredDropped " << s.measuredDropped << "\n"
       << "pendingPackets " << s.pendingPackets << "\n";
    const std::vector<std::uint64_t> arcs =
        net.interRouterFlitCounts();
    for (std::size_t i = 0; i < arcs.size(); ++i)
        os << "arc " << i << " " << arcs[i] << "\n";
    const LinkStats ls = net.linkStats();
    os << "link.attempts " << ls.attempts << "\n"
       << "link.retransmits " << ls.retransmits << "\n"
       << "link.corruptInjected " << ls.corruptInjected << "\n"
       << "link.eraseInjected " << ls.eraseInjected << "\n"
       << "link.crcRejected " << ls.crcRejected << "\n"
       << "link.dupSuppressed " << ls.dupSuppressed << "\n"
       << "link.nacksSent " << ls.nacksSent << "\n"
       << "link.acksSent " << ls.acksSent << "\n"
       << "link.timeouts " << ls.timeouts << "\n";
}

/**
 * One leg of the pinned bursty scenario
 * (tests/test_idle_equivalence.cc): a 4-ary 2-flat driven by
 * explicit per-terminal bursts at epoch boundaries, each followed by
 * a long all-idle gap.
 *
 * @param with_errors when true, a transient-error model enables
 *        link-layer retry, whose timeout/backoff timers must fire
 *        identically across the idle gaps.  (Reliable links also
 *        make the Network fall back to one shard, so this leg
 *        doubles as the fallback's regression test.)
 */
inline std::string
runBurstyLeg(bool with_errors, int shards = 1)
{
    FlattenedButterfly topo(4, 2); // 16 nodes, 4 routers
    MinAdaptive algo(topo);

    ErrorModelConfig ecfg;
    ecfg.corruptRate = 0.02;
    ecfg.eraseRate = 0.01;
    ecfg.seed = 11;
    ErrorModel errors(topo, ecfg);

    TraceSink sink(1 << 16);
    sink.setLevel(TraceLevel::kFull);

    NetworkConfig cfg;
    cfg.numVcs = algo.numVcs();
    cfg.vcDepth = 4;
    cfg.seed = 2007;
    cfg.errors = with_errors ? &errors : nullptr;
    cfg.trace = &sink;
    cfg.shards = shards;

    // Explicit destinations only: no traffic pattern, so an idle
    // cycle consumes no RNG anywhere by construction.
    Network net(topo, algo, nullptr, cfg);
    const NodeId n = static_cast<NodeId>(net.numNodes());

    for (int epoch = 0; epoch < 4; ++epoch) {
        // Burst: a deterministic subset of terminals each queue two
        // packets with pinned destinations.
        for (NodeId src = 0; src < n; ++src) {
            if ((src + epoch) % 3 != 0)
                continue;
            for (int p = 0; p < 2; ++p) {
                NodeId dst = static_cast<NodeId>(
                    (src * 7 + epoch * 5 + p + 1) % n);
                if (dst == src)
                    dst = static_cast<NodeId>((dst + 1) % n);
                net.terminal(src).enqueuePacket(net.now(), dst,
                                                true);
            }
        }
        // Busy phase: long enough for the burst (and any
        // retransmission rounds) to drain completely.
        for (int c = 0; c < 150; ++c)
            net.step();
        // Silent epoch: hundreds of cycles with no work anywhere.
        const int silence = 300 + 150 * epoch;
        for (int c = 0; c < silence; ++c)
            net.step();
    }

    EXPECT_EQ(sink.droppedRecords(), 0u)
        << "bursty ring overflowed; enlarge the sink";
    EXPECT_TRUE(net.quiescent())
        << "burst did not drain within its busy phase";

    std::ostringstream os;
    os << sink.toText();
    dumpNetworkState(os, net);
    return os.str();
}

/** Both bursty legs, concatenated into the canonical fixture text. */
inline std::string
runBurstyScenario(int shards = 1)
{
    std::ostringstream os;
    os << "=== leg plain ===\n";
    os << runBurstyLeg(false, shards);
    os << "=== leg reliable ===\n";
    os << runBurstyLeg(true, shards);
    return os.str();
}

/**
 * The pinned near-zero-load sweep: at 1-2% offered load the vast
 * majority of cycles are idle for the vast majority of components,
 * so this is where an idle-skipping kernel diverges first if a wake
 * condition is missing — and where a sharded engine diverges first
 * if a cross-shard arrival is committed out of order.
 */
inline std::vector<SweepPointRecord>
runIdleSweep(int threads, int shards = 1)
{
    FlattenedButterfly topo(4, 2);
    MinAdaptive min_ad(topo);
    UniformRandom pattern(topo.numNodes());

    ExperimentConfig expcfg;
    expcfg.warmupCycles = 200;
    expcfg.measureCycles = 400;
    expcfg.drainCycles = 2000;
    expcfg.obs.traceEnabled = true;
    expcfg.obs.traceCapacity = 1 << 15;
    expcfg.obs.metricsEnabled = true;
    expcfg.obs.metricsWindowCycles = 100;

    NetworkConfig netcfg;
    netcfg.vcDepth = 8;
    netcfg.shards = shards;

    SweepConfig cfg;
    cfg.threads = threads;
    cfg.masterSeed = 2007;
    SweepEngine engine(cfg);
    engine.addLoadSweep("idle MIN AD / uniform", topo, min_ad,
                        pattern, netcfg, expcfg, {0.01, 0.02});
    return engine.run();
}

/** Integer-only canonical text of a sweep run (fixture form). */
inline std::string
canonicalSweepText(const std::vector<SweepPointRecord> &recs)
{
    std::ostringstream os;
    for (const SweepPointRecord &r : recs) {
        os << "=== point " << r.index << " " << r.series << " ===\n"
           << "seed " << r.seed << "\n"
           << "status " << static_cast<int>(r.load.status) << "\n"
           << "measuredPackets " << r.load.measuredPackets << "\n"
           << "flitsDropped " << r.load.flitsDropped << "\n"
           << "measuredDropped " << r.load.measuredDropped << "\n";
        if (r.load.metrics != nullptr)
            for (const auto &c : r.load.metrics->counters())
                os << "counter " << c.first << " " << c.second
                   << "\n";
        if (r.load.trace != nullptr)
            os << r.load.trace->toText();
    }
    return os.str();
}

/** Shared fixture compare/regenerate helper (golden-trace idiom):
 *  regenerates @p path under FBFLY_REGEN_GOLDEN=1, otherwise fails
 *  with a readable first-divergence report. */
inline void
checkAgainstFixture(const std::string &actual, const char *path)
{
    ASSERT_FALSE(actual.empty());

    if (std::getenv("FBFLY_REGEN_GOLDEN") != nullptr) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << actual;
        out.close();
        ASSERT_TRUE(out.good());
        GTEST_SKIP() << "regenerated " << path << " ("
                     << actual.size() << " bytes) — commit it";
    }

    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << "missing fixture " << path
                    << " — run with FBFLY_REGEN_GOLDEN=1 to create "
                       "it";
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string expected = buf.str();

    if (actual == expected) {
        SUCCEED();
        return;
    }

    // Readable first-divergence report.
    std::vector<std::string> exp;
    std::vector<std::string> act;
    {
        std::istringstream is(expected);
        std::string line;
        while (std::getline(is, line))
            exp.push_back(line);
    }
    {
        std::istringstream is(actual);
        std::string line;
        while (std::getline(is, line))
            act.push_back(line);
    }
    std::size_t i = 0;
    while (i < exp.size() && i < act.size() && exp[i] == act[i])
        ++i;
    std::ostringstream msg;
    msg << "fixture " << path << " diverged at line " << i + 1
        << " of " << exp.size() << " (actual has " << act.size()
        << " lines)\n";
    for (std::size_t c = i >= 3 ? i - 3 : 0; c < i; ++c)
        msg << "  context:  " << exp[c] << "\n";
    msg << "  expected: "
        << (i < exp.size() ? exp[i] : "<end of fixture>") << "\n"
        << "  actual:   "
        << (i < act.size() ? act[i] : "<end of output>") << "\n"
        << "regenerate with FBFLY_REGEN_GOLDEN=1 if the schedule "
           "change is intentional";
    ADD_FAILURE() << msg.str();
}

} // namespace fixtures
} // namespace fbfly

#endif // FBFLY_TESTS_FIXTURE_SCENARIOS_H
