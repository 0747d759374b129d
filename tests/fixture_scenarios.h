/**
 * @file
 * Pinned fixture scenarios shared by the golden-trace,
 * idle-equivalence, fault+churn and shard-determinism suites.
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

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "fault/churn_model.h"
#include "fault/error_model.h"
#include "fault/fault_model.h"
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
inline const char *const kFaultChurnFixture =
    FBFLY_TEST_DATA_DIR "/fault_churn_4ary2flat_minad.txt";

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

/**
 * The pinned fault + churn scenario: a MIN AD run on the 4-ary
 * 2-flat under a link + router ChurnModel schedule, combined with a
 * FaultModel derived from that schedule:
 *  - a permanent link fault at the midpoint of the first link
 *    episode (the link's own repair must not revive it, and its
 *    later episodes churn a permanently dead link);
 *  - a permanent router fault at the midpoint of the first episode
 *    of a router that has more episodes (its repair and its later
 *    episodes are churn on a router held down for good);
 *  - a time-triggered link fault mid-run on the lowest link the
 *    schedule never touches.
 * Traffic is Bernoulli injection with a measured window; the run
 * ends well after every repair has landed.  Returns the
 * packet-level trace (inject/eject/drop plus churn/repair) and the
 * state dump, churn counters and per-channel liveness included.
 */
inline std::string
runFaultChurnScenario(int shards = 1)
{
    FlattenedButterfly topo(4, 2); // 16 nodes, 4 routers
    MinAdaptive algo(topo);

    ChurnConfig cc;
    cc.linkMtbf = 1500;
    cc.linkMttr = 200;
    cc.routerMtbf = 800;
    cc.routerMttr = 150;
    cc.horizon = 1000;
    cc.seed = 2;
    const ChurnModel churn(topo, cc);
    const std::vector<ServiceEvent> &events = churn.events();
    const auto repairOf = [&](const ServiceEvent &down) {
        for (const ServiceEvent &ev : events)
            if (!ev.isDown() && ev.episode == down.episode)
                return ev.at;
        return Cycle{0};
    };

    FaultModel faults(topo);
    const std::vector<Topology::Arc> &arcs = churn.arcs();
    const ServiceEvent *linkEp = nullptr;
    const ServiceEvent *routerEp = nullptr;
    for (const ServiceEvent &ev : events) {
        if (ev.kind == ServiceEvent::Kind::kLinkDown &&
            linkEp == nullptr)
            linkEp = &ev;
        if (ev.kind != ServiceEvent::Kind::kRouterDown ||
            routerEp != nullptr)
            continue;
        for (const ServiceEvent &later : events)
            if (later.kind == ServiceEvent::Kind::kRouterDown &&
                later.router == ev.router && later.at > ev.at)
                routerEp = &ev;
    }
    EXPECT_NE(linkEp, nullptr);
    EXPECT_NE(routerEp, nullptr);
    if (linkEp == nullptr || routerEp == nullptr)
        return std::string();
    const Topology::Arc &failedLink = arcs[linkEp->link];
    const Cycle linkUp = repairOf(*linkEp);
    const Cycle routerUp = repairOf(*routerEp);
    faults.failLinkBetween(failedLink.src, failedLink.dst,
                           (linkEp->at + linkUp) / 2);
    faults.failRouter(routerEp->router, (routerEp->at + routerUp) / 2);

    std::vector<char> churned(arcs.size(), 0);
    for (const ServiceEvent &ev : events)
        if (ev.kind == ServiceEvent::Kind::kLinkDown)
            churned[ev.link] = 1;
    std::size_t quiet = 0;
    while (quiet < arcs.size() &&
           (churned[quiet] != 0 || churn.reverseArc(quiet) < quiet))
        ++quiet;
    EXPECT_LT(quiet, arcs.size());
    if (quiet == arcs.size())
        return std::string();
    faults.failLinkBetween(arcs[quiet].src, arcs[quiet].dst, 300);

    TraceSink sink(1 << 15);
    sink.setLevel(TraceLevel::kPackets);

    NetworkConfig cfg;
    cfg.numVcs = algo.numVcs();
    cfg.vcDepth = 4;
    cfg.seed = 2007;
    cfg.faults = &faults;
    cfg.churn = &churn;
    cfg.trace = &sink;
    cfg.shards = shards;

    // Explicit destinations that skip the failed router's terminals:
    // packets addressed to a dead router spend their escape budget
    // on detours that are not deadlock-free (docs/FAULTS.md), and
    // under uniform traffic they lock this small network up within a
    // few hundred cycles, leaving nothing to pin.
    Network net(topo, algo, nullptr, cfg);
    std::vector<NodeId> dests;
    for (NodeId n = 0; n < net.numNodes(); ++n)
        if (topo.ejectionRouter(n) != routerEp->router)
            dests.push_back(n);
    Rng rng(7);
    for (int c = 0; c < 1000; ++c) {
        for (NodeId n = 0; n < net.numNodes(); ++n) {
            if (rng.nextDouble() >= 0.06)
                continue;
            const NodeId dst = dests[rng.nextBounded(dests.size())];
            if (dst != n)
                net.terminal(n).enqueuePacket(net.now(), dst,
                                              c >= 200 && c < 800);
        }
        net.step();
    }
    for (int c = 0; c < 300; ++c)
        net.step();
    EXPECT_GT(net.now(), std::max(linkUp, routerUp));
    EXPECT_EQ(net.checkInvariants(), "");
    EXPECT_EQ(sink.droppedRecords(), 0u)
        << "fault+churn ring overflowed; enlarge the sink";

    // Repairs never revive a permanently failed entity.
    for (std::size_t i = 0; i < arcs.size(); ++i) {
        if (faults.arcFailCycle(i) != FaultModel::kNever) {
            EXPECT_TRUE(net.arcChannel(i).dead()) << "arc " << i;
        }
    }
    for (NodeId n = 0; n < net.numNodes(); ++n) {
        if (topo.injectionRouter(n) != routerEp->router)
            continue;
        EXPECT_TRUE(net.injectionChannel(n).dead()) << "node " << n;
        EXPECT_TRUE(net.ejectionChannel(n).dead()) << "node " << n;
    }

    const NetworkStats &s = net.stats();
    std::ostringstream os;
    os << sink.toText();
    dumpNetworkState(os, net);
    os << "churnDownEvents " << s.churnDownEvents << "\n"
       << "churnRepairEvents " << s.churnRepairEvents << "\n"
       << "churnFlitsLost " << s.churnFlitsLost << "\n"
       << "churnPacketsLost " << s.churnPacketsLost << "\n"
       << "lastProgress " << net.lastProgressCycle() << "\n";
    for (std::size_t i = 0; i < arcs.size(); ++i)
        os << "dead arc " << i << " "
           << (net.arcChannel(i).dead() ? 1 : 0) << "\n";
    for (NodeId n = 0; n < net.numNodes(); ++n)
        os << "dead node " << n << " "
           << (net.injectionChannel(n).dead() ? 1 : 0) << " "
           << (net.ejectionChannel(n).dead() ? 1 : 0) << "\n";
    return os.str();
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
