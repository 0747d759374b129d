/**
 * @file
 * Pinned routing decisions of every adaptive routing family.
 *
 * Each case runs a short Bernoulli load on a small network through a
 * forwarding RoutingAlgorithm that counts decisions, escape hops
 * (flit.misroutes increments) and drops, and hashes the vc-alloc and
 * drop lines of the full trace — one record per routing decision
 * (router, cycle, packet, output port and VC).  One integer-only line
 * per case is compared against tests/data/routing_decisions.txt.
 *
 * The fixture pins the decisions, not the code that makes them: never
 * regenerate it to absorb a refactor of the routing code (the shared
 * policy of routing/port_choice.h or a family's offer order) — a
 * divergence means a routing decision or its RNG draw order moved.
 * The faulty cases fail a seeded set of links, and each must take at
 * least one escape hop, so the escape rule is pinned too.  CLOS AD
 * runs only fault-free: its fault handling is tested by
 * FaultRouting.AdaptiveAroundDeadLink.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>

#include "fault/fault_model.h"
#include "fixture_scenarios.h"
#include "harness/factory.h"
#include "network/flit.h"
#include "network/network.h"
#include "obs/trace.h"
#include "traffic/injection.h"

namespace fbfly
{
namespace
{

const char *const kRoutingFixture =
    FBFLY_TEST_DATA_DIR "/routing_decisions.txt";

/** Forwards to a routing algorithm and counts what it decides. */
class CountingRouting final : public RoutingAlgorithm
{
  public:
    explicit CountingRouting(RoutingAlgorithm &inner) : inner_(inner)
    {
    }

    std::string name() const override { return inner_.name(); }
    int numVcs() const override { return inner_.numVcs(); }
    bool sequential() const override { return inner_.sequential(); }
    bool preservesFlowOrder() const override
    {
        return inner_.preservesFlowOrder();
    }

    RouteDecision route(Router &router, Flit &flit) override
    {
        const int before = flit.misroutes;
        const RouteDecision d = inner_.route(router, flit);
        ++decisions;
        escapes += static_cast<std::uint64_t>(flit.misroutes - before);
        if (d.drop)
            ++drops;
        return d;
    }

    std::uint64_t decisions = 0;
    std::uint64_t escapes = 0;
    std::uint64_t drops = 0;

  private:
    RoutingAlgorithm &inner_;
};

struct Case
{
    const char *topo;
    const char *routing;
    const char *traffic;
    double load;
    int faults; // bidirectional links failed (seeded), 0 = none
};

/** FNV-1a over the vc-alloc and drop lines of @p trace. */
std::uint64_t
decisionHash(const std::string &trace)
{
    std::uint64_t h = 14695981039346656037ull;
    std::istringstream is(trace);
    std::string line;
    while (std::getline(is, line)) {
        if (line.find(" vc-alloc ") == std::string::npos &&
            line.find(" drop ") == std::string::npos)
            continue;
        for (const char c : line) {
            h ^= static_cast<unsigned char>(c);
            h *= 1099511628211ull;
        }
        h ^= '\n';
        h *= 1099511628211ull;
    }
    return h;
}

/** Run one case; returns its fixture line and reports its escapes. */
std::string
runCase(const Case &c, std::uint64_t &escapes)
{
    NetworkBundle b = makeNetworkBundle(c.topo, c.routing);
    const Topology &topo = *b.topology;
    CountingRouting algo(*b.routing);
    auto pattern =
        makeTraffic(c.traffic, topo.numNodes(), b.terminalsPerRouter);

    FaultModel fm(topo);
    int failed = 0;
    if (c.faults > 0)
        failed = fm.failRandomLinks(c.faults, 2007);

    TraceSink sink(1 << 19);
    sink.setLevel(TraceLevel::kFull);

    NetworkConfig cfg;
    cfg.numVcs = algo.numVcs();
    cfg.vcDepth = 4;
    cfg.seed = 2007;
    cfg.channelPeriod = b.channelPeriod;
    cfg.faults = c.faults > 0 ? &fm : nullptr;
    cfg.watchdogCycles = 2000;
    cfg.trace = &sink;

    Network net(topo, algo, pattern.get(), cfg);
    BernoulliInjection inj(c.load, 1, 7);
    for (int cyc = 0; cyc < 300; ++cyc) {
        inj.tick(net, true);
        net.step();
    }
    for (int cyc = 0; cyc < 3000 && !net.quiescent(); ++cyc)
        net.step();
    EXPECT_EQ(sink.droppedRecords(), 0u)
        << c.topo << " " << c.routing << ": enlarge the trace ring";

    escapes = algo.escapes;
    const NetworkStats &s = net.stats();
    std::ostringstream os;
    os << c.topo << " " << c.routing << " " << c.traffic << " load "
       << static_cast<int>(c.load * 100) << "% faults " << failed
       << " now " << net.now() << " quiescent "
       << (net.quiescent() ? 1 : 0) << " stalled "
       << (net.stalled() ? 1 : 0) << " injected " << s.flitsInjected
       << " ejected " << s.flitsEjected << " hops " << s.hopsEjected
       << " dropped " << s.flitsDropped << " decisions "
       << algo.decisions << " escapes " << algo.escapes << " drops "
       << algo.drops << " trace " << decisionHash(sink.toText())
       << "\n";
    return os.str();
}

TEST(RoutingDecisions, MatchPinnedFixture)
{
    static const Case kCases[] = {
        {"fbfly-4-3", "minad", "uniform", 0.5, 0},
        {"fbfly-4-3", "val", "uniform", 0.3, 0},
        {"fbfly-4-3", "ugal", "adversarial", 0.4, 0},
        {"fbfly-4-3", "ugals", "adversarial", 0.4, 0},
        {"fbfly-4-3", "ugals", "uniform", 0.5, 0},
        {"fbfly-4-3", "closad", "adversarial", 0.4, 0},
        {"fbfly-4-3", "closad", "uniform", 0.5, 0},
        {"clos-64-8-4", "adaptive", "uniform", 0.5, 0},
        {"fattree-128-8-4-4-4", "adaptive", "uniform", 0.5, 0},
        {"ghc-4x4", "ghcadapt", "uniform", 0.5, 0},
        {"dragonfly-2-4-2", "dfmin", "uniform", 0.3, 0},
        {"dragonfly-2-4-2", "dfugal", "adversarial", 0.3, 0},
        {"slimfly-5-2", "sfmin", "uniform", 0.4, 0},
        {"slimfly-5-2", "sfugal", "adversarial", 0.3, 0},
        // Faulty: every fault-aware family takes escape hops.
        {"fbfly-4-3", "minad", "uniform", 0.3, 8},
        {"fbfly-4-3", "val", "uniform", 0.1, 4},
        {"fbfly-4-3", "ugal", "adversarial", 0.3, 8},
        {"fbfly-4-3", "ugals", "uniform", 0.3, 8},
        {"ghc-4x4", "ghcadapt", "uniform", 0.3, 8},
        {"dragonfly-2-4-2", "dfmin", "uniform", 0.1, 4},
        {"dragonfly-2-4-2", "dfugal", "uniform", 0.1, 4},
        {"slimfly-5-2", "sfmin", "uniform", 0.15, 8},
        {"slimfly-5-2", "sfugal", "uniform", 0.15, 8},
    };
    std::string text;
    for (const Case &c : kCases) {
        std::uint64_t escapes = 0;
        text += runCase(c, escapes);
        if (c.faults > 0) {
            EXPECT_GT(escapes, 0u)
                << c.topo << " " << c.routing
                << ": the faulty case never took an escape hop";
        }
    }
    fixtures::checkAgainstFixture(text, kRoutingFixture);
}

} // namespace
} // namespace fbfly
