#include "harness/design_search.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>

#include "common/json.h"
#include "common/log.h"
#include "cost/topology_cost.h"
#include "harness/factory.h"
#include "harness/result_writer.h"
#include "power/power_model.h"
#include "topology/topology.h"
#include "traffic/traffic_pattern.h"

namespace fbfly
{

const char *
toString(TopoFamily f)
{
    switch (f) {
    case TopoFamily::kFlattenedButterfly:
        return "fbfly";
    case TopoFamily::kFoldedClos:
        return "clos";
    case TopoFamily::kHypercube:
        return "hypercube";
    case TopoFamily::kGeneralizedHypercube:
        return "ghc";
    case TopoFamily::kDragonfly:
        return "dragonfly";
    case TopoFamily::kSlimFly:
        return "slimfly";
    }
    return "?";
}

namespace
{

std::int64_t
ipow(std::int64_t base, int exp)
{
    std::int64_t v = 1;
    for (int i = 0; i < exp; ++i)
        v *= base;
    return v;
}

/**
 * One (family, size parameters) point of the enumeration grid with
 * its closed-form structure.  The channel-slicing / buffer variants
 * expand from this.
 */
struct FamilyConfig
{
    TopoFamily family;
    std::string spec;    ///< factory topology spec
    std::string routing; ///< factory routing name
    /** Raw size parameters, family-specific (see the add* helpers). */
    std::int64_t px[3] = {0, 0, 0};

    std::int64_t terminals = 0;
    std::int64_t routers = 0;
    int radix = 0;
    int diameter = 0;
    /** Mean minimal inter-router hops over ordered terminal pairs
     *  (closed form; tests/test_properties.cc checks it against BFS
     *  ground truth per family). */
    double avgMinHops = 0.0;
};

/** Terminal-pair average from the mean distance to a uniformly
 *  random router (self included) — valid for vertex-transitive
 *  direct topologies with a fixed terminal count per router. */
double
terminalPairAvg(double dbar, std::int64_t terminals)
{
    return dbar * static_cast<double>(terminals) /
           static_cast<double>(terminals - 1);
}

void
addFbfly(std::vector<FamilyConfig> &out)
{
    for (const int k : {2, 4, 8, 16, 32}) {
        for (const int n : {2, 3, 4}) {
            FamilyConfig c;
            c.family = TopoFamily::kFlattenedButterfly;
            c.spec = "fbfly-" + std::to_string(k) + "-" +
                     std::to_string(n);
            c.routing = "ugal";
            c.px[0] = k;
            c.px[1] = n;
            c.terminals = ipow(k, n);
            c.routers = ipow(k, n - 1);
            c.radix = n * (k - 1) + 1;
            c.diameter = n - 1;
            c.avgMinHops = terminalPairAvg(
                static_cast<double>(n - 1) * (k - 1) / k,
                c.terminals);
            out.push_back(std::move(c));
        }
    }
}

void
addClos(std::vector<FamilyConfig> &out)
{
    for (const int cc : {4, 8}) {
        for (const int taper : {1, 2}) {
            const int u = cc / taper;
            for (const std::int64_t leaves : {4, 8, 16, 32, 64, 128}) {
                FamilyConfig c;
                c.family = TopoFamily::kFoldedClos;
                const std::int64_t nodes = cc * leaves;
                c.spec = "clos-" + std::to_string(nodes) + "-" +
                         std::to_string(cc) + "-" + std::to_string(u);
                c.routing = "adaptive";
                c.px[0] = nodes;
                c.px[1] = cc;
                c.px[2] = u;
                c.terminals = nodes;
                c.routers = leaves + u;
                c.radix = static_cast<int>(
                    std::max<std::int64_t>(cc + u, leaves));
                c.diameter = 2;
                // Same-leaf pairs are 0 hops, cross-leaf pairs 2.
                c.avgMinHops = 2.0 * cc * (leaves - 1) /
                               static_cast<double>(cc * leaves - 1);
                out.push_back(std::move(c));
            }
        }
    }
}

void
addHypercube(std::vector<FamilyConfig> &out)
{
    for (int d = 4; d <= 10; ++d) {
        FamilyConfig c;
        c.family = TopoFamily::kHypercube;
        c.spec = "hypercube-" + std::to_string(d);
        c.routing = "ecube";
        c.px[0] = d;
        c.terminals = std::int64_t{1} << d;
        c.routers = c.terminals;
        c.radix = d + 1;
        c.diameter = d;
        c.avgMinHops = terminalPairAvg(d / 2.0, c.terminals);
        out.push_back(std::move(c));
    }
}

void
addGhc(std::vector<FamilyConfig> &out)
{
    for (const int k : {4, 8, 16}) {
        for (const int m : {2, 3}) {
            FamilyConfig c;
            c.family = TopoFamily::kGeneralizedHypercube;
            c.spec = "ghc-" + std::to_string(k);
            for (int i = 1; i < m; ++i)
                c.spec += "x" + std::to_string(k);
            c.routing = "ghcadapt";
            c.px[0] = k;
            c.px[1] = m;
            c.terminals = ipow(k, m);
            c.routers = c.terminals;
            c.radix = m * (k - 1) + 1;
            c.diameter = m;
            c.avgMinHops = terminalPairAvg(
                static_cast<double>(m) * (k - 1) / k, c.terminals);
            out.push_back(std::move(c));
        }
    }
}

void
addDragonfly(std::vector<FamilyConfig> &out)
{
    static constexpr int kConfigs[][3] = {
        {2, 2, 1}, {2, 4, 2}, {4, 4, 2},
        {2, 6, 3}, {4, 8, 4}, {8, 8, 4},
    };
    for (const auto &pah : kConfigs) {
        const int p = pah[0], a = pah[1], h = pah[2];
        const std::int64_t g = std::int64_t{a} * h + 1;
        FamilyConfig c;
        c.family = TopoFamily::kDragonfly;
        c.spec = "dragonfly-" + std::to_string(p) + "-" +
                 std::to_string(a) + "-" + std::to_string(h);
        c.routing = "dfugal";
        c.px[0] = p;
        c.px[1] = a;
        c.px[2] = h;
        c.routers = a * g;
        c.terminals = p * c.routers;
        c.radix = p + (a - 1) + h;
        c.diameter = 3;
        // Same group: 1 hop.  Cross group: the global hop plus one
        // local hop per non-gateway endpoint ((a-1)/a each side).
        const double rr = static_cast<double>(c.routers);
        const double sum =
            static_cast<double>(g) * a * (a - 1) +
            static_cast<double>(g) * (g - 1) *
                (static_cast<double>(a) * a + 2.0 * a * (a - 1));
        c.avgMinHops = terminalPairAvg(sum / (rr * rr), c.terminals);
        out.push_back(std::move(c));
    }
}

void
addSlimFly(std::vector<FamilyConfig> &out)
{
    for (const int q : {5, 13, 17}) {
        for (const int p : {2, 4, 8}) {
            FamilyConfig c;
            c.family = TopoFamily::kSlimFly;
            c.spec = "slimfly-" + std::to_string(q) + "-" +
                     std::to_string(p);
            c.routing = "sfugal";
            c.px[0] = q;
            c.px[1] = p;
            c.routers = 2 * std::int64_t{q} * q;
            c.terminals = p * c.routers;
            const int deg = (3 * q - 1) / 2;
            c.radix = p + deg;
            c.diameter = 2;
            const double rr = static_cast<double>(c.routers);
            c.avgMinHops = terminalPairAvg(
                (deg + 2.0 * (rr - 1 - deg)) / rr, c.terminals);
            out.push_back(std::move(c));
        }
    }
}

/**
 * Cost/power inventory of one candidate, built with the existing
 * TopologyCostModel builders.  Channel slicing (period > 1) divides
 * the signal count of every inter-router cable by the period — the
 * paper's Section 4 tradeoff: narrower channels, proportionally
 * cheaper wiring, proportionally lower peak bandwidth.  Router cost
 * is conservatively kept at full width.  The hypercube builder
 * already prices the half-bandwidth (period-2) channels its
 * capacity-matched configuration requires, so it is exempt.
 */
Inventory
candidateInventory(const TopologyCostModel &model,
                   const FamilyConfig &cfg, Cycle period)
{
    Inventory inv;
    switch (cfg.family) {
    case TopoFamily::kFlattenedButterfly:
        inv = model.kAryNFlat(static_cast<int>(cfg.px[0]),
                              static_cast<int>(cfg.px[1]));
        break;
    case TopoFamily::kFoldedClos: {
        // The instance-exact two-level clos (the library foldedClos()
        // builder prices the paper's radix-64 configuration, not the
        // simulated clos-N-C-U instance).
        const std::int64_t nodes = cfg.px[0];
        const std::int64_t cc = cfg.px[1];
        const std::int64_t u = cfg.px[2];
        const std::int64_t leaves = nodes / cc;
        const CostModel &cm = model.cost();
        const PackagingModel &pk = model.packaging();
        inv.topology = cfg.spec;
        inv.numNodes = nodes;
        inv.direct = false;
        inv.routers.push_back(
            {leaves, static_cast<double>(cc + u) * cm.signalsPerPort *
                         2.0,
             "leaf"});
        inv.routers.push_back(
            {u, static_cast<double>(leaves) * cm.signalsPerPort * 2.0,
             "middle"});
        inv.links.push_back({LinkLocale::Backplane, 0.0, 2 * nodes,
                             cm.signalsPerPort, "terminal"});
        // Up/down cables all route to central cabinets (global,
        // average E/4), like the library builder.
        inv.links.push_back({LinkLocale::GlobalCable,
                             pk.avgGlobalClos(nodes) +
                                 pk.cableOverheadM,
                             2 * leaves * u, cm.signalsPerPort,
                             "up/down"});
        break;
    }
    case TopoFamily::kHypercube:
        inv = model.hypercube(std::int64_t{1} << cfg.px[0]);
        break;
    case TopoFamily::kGeneralizedHypercube:
        inv = model.generalizedHypercube(
            cfg.terminals, static_cast<int>(cfg.px[1]));
        break;
    case TopoFamily::kDragonfly:
        inv = model.dragonfly(static_cast<int>(cfg.px[0]),
                              static_cast<int>(cfg.px[1]),
                              static_cast<int>(cfg.px[2]));
        break;
    case TopoFamily::kSlimFly:
        inv = model.slimFly(static_cast<int>(cfg.px[0]),
                            static_cast<int>(cfg.px[1]));
        break;
    }
    if (cfg.family != TopoFamily::kHypercube && period > 1) {
        for (auto &g : inv.links) {
            if (g.label != "terminal")
                g.signalsPerLink /= static_cast<double>(period);
        }
    }
    return inv;
}

/** B dominates A: no worse on every analytic axis, better on one. */
bool
dominates(const DesignCandidate &b, const DesignCandidate &a)
{
    if (b.costPerTerminal > a.costPerTerminal ||
        b.powerPerTerminal > a.powerPerTerminal ||
        b.throughputBound < a.throughputBound ||
        b.avgMinHops > a.avgMinHops)
        return false;
    return b.costPerTerminal < a.costPerTerminal ||
           b.powerPerTerminal < a.powerPerTerminal ||
           b.throughputBound > a.throughputBound ||
           b.avgMinHops < a.avgMinHops;
}

} // namespace

std::vector<DesignCandidate>
enumerateDesignCandidates(const DesignSpec &spec)
{
    std::vector<FamilyConfig> configs;
    addFbfly(configs);
    addClos(configs);
    addHypercube(configs);
    addGhc(configs);
    addDragonfly(configs);
    addSlimFly(configs);

    const std::int64_t lo = spec.minTerminals;
    const std::int64_t hi = static_cast<std::int64_t>(std::floor(
        static_cast<double>(spec.minTerminals) *
        spec.maxTerminalFactor));

    const TopologyCostModel model;
    std::vector<DesignCandidate> out;
    for (const FamilyConfig &cfg : configs) {
        if (cfg.terminals < lo || cfg.terminals > hi)
            continue;
        // Structure is shared by all slicing/buffer variants; build
        // the topology once per grid point.
        const NetworkBundle bundle =
            makeNetworkBundle(cfg.spec, cfg.routing);
        const auto arcs = bundle.topology->arcs();
        const int routers = bundle.topology->numRouters();
        std::int64_t bisection = 0;
        for (const auto &arc : arcs) {
            if ((arc.src < routers / 2) != (arc.dst < routers / 2))
                ++bisection;
        }
        // The capacity-matched hypercube is defined with
        // half-bandwidth channels; other families get both slicings.
        const bool is_hc = cfg.family == TopoFamily::kHypercube;
        const std::vector<Cycle> periods =
            is_hc ? std::vector<Cycle>{2} : std::vector<Cycle>{1, 2};
        for (const Cycle period : periods) {
            for (const int depth : {4, 8}) {
                DesignCandidate cand;
                cand.family = cfg.family;
                cand.topoSpec = cfg.spec;
                cand.routing = cfg.routing;
                cand.channelPeriod = period;
                cand.vcDepth = depth;
                cand.numVcs = bundle.routing->numVcs();
                cand.terminals = cfg.terminals;
                cand.routers = cfg.routers;
                cand.radix = cfg.radix;
                cand.diameter = cfg.diameter;
                cand.avgMinHops = cfg.avgMinHops;
                cand.channels =
                    static_cast<std::int64_t>(arcs.size());
                cand.bisectionArcs = bisection;
                // Channel-count bound on uniform-random throughput:
                // lambda * T * avgHops flit-hops/cycle must fit in
                // channels/period hops of aggregate bandwidth.
                cand.throughputBound = std::min(
                    1.0, static_cast<double>(cand.channels) /
                             (static_cast<double>(cand.terminals) *
                              cand.avgMinHops *
                              static_cast<double>(period)));
                const Inventory inv =
                    candidateInventory(model, cfg, period);
                cand.costDollars = model.price(inv).total();
                cand.powerWatts = PowerModel{}.power(inv).total();
                cand.costPerTerminal =
                    cand.costDollars /
                    static_cast<double>(cand.terminals);
                cand.powerPerTerminal =
                    cand.powerWatts /
                    static_cast<double>(cand.terminals);
                out.push_back(std::move(cand));
            }
        }
    }

    // --- Analytic pruning -----------------------------------------
    // 1/2: budget gates.
    for (DesignCandidate &c : out) {
        if (spec.maxCostPerTerminal > 0.0 &&
            c.costPerTerminal > spec.maxCostPerTerminal) {
            c.pruned = true;
            c.pruneReason = "cost-budget";
        } else if (spec.maxPowerPerTerminal > 0.0 &&
                   c.powerPerTerminal > spec.maxPowerPerTerminal) {
            c.pruned = true;
            c.pruneReason = "power-budget";
        }
    }
    // 3: buffer budget.  Variants of one (topology, slicing) differ
    // only in buffer organization, invisible to the analytic model;
    // keep the one closest to the paper's ~32 flits/port budget
    // (numVcs * vcDepth), prune the rest before simulation.
    std::map<std::string, std::vector<std::size_t>> groups;
    for (std::size_t i = 0; i < out.size(); ++i) {
        if (out[i].pruned)
            continue;
        groups[out[i].topoSpec + "|" + out[i].routing + "|" +
               std::to_string(out[i].channelPeriod)]
            .push_back(i);
    }
    for (const auto &[key, idxs] : groups) {
        (void)key;
        std::size_t best = idxs.front();
        auto deviation = [&](std::size_t i) {
            return std::abs(out[i].numVcs * out[i].vcDepth - 32);
        };
        for (const std::size_t i : idxs) {
            if (deviation(i) < deviation(best) ||
                (deviation(i) == deviation(best) &&
                 out[i].vcDepth > out[best].vcDepth))
                best = i;
        }
        for (const std::size_t i : idxs) {
            if (i != best) {
                out[i].pruned = true;
                out[i].pruneReason = "buffer-budget";
            }
        }
    }
    // 4: intra-family dominance on (cost/terminal, power/terminal,
    // throughput bound, avg minimal hops).  Deliberately *within* a
    // family only — ranking across families from analytic bounds is
    // exactly what the measured frontier exists to do.
    for (std::size_t i = 0; i < out.size(); ++i) {
        if (out[i].pruned)
            continue;
        for (std::size_t j = 0; j < out.size(); ++j) {
            if (i == j || out[j].pruned ||
                out[j].family != out[i].family)
                continue;
            if (dominates(out[j], out[i])) {
                out[i].pruned = true;
                out[i].pruneReason = "dominated";
                break;
            }
        }
    }
    return out;
}

DesignSearchResult
runDesignSearch(const DesignSpec &spec, const SweepConfig &sweep_cfg)
{
    DesignSearchResult res;
    res.candidates = enumerateDesignCandidates(spec);

    std::vector<std::size_t> survivors;
    for (std::size_t i = 0; i < res.candidates.size(); ++i) {
        if (!res.candidates[i].pruned)
            survivors.push_back(i);
    }

    // The engine holds references into these; the vector may
    // reallocate but the pointed-to objects stay put.
    struct SweptCandidate
    {
        NetworkBundle bundle;
        std::unique_ptr<TrafficPattern> traffic;
    };
    std::vector<SweptCandidate> swept;
    swept.reserve(survivors.size());

    SweepEngine engine(sweep_cfg);
    for (const std::size_t si : survivors) {
        const DesignCandidate &cand = res.candidates[si];
        SweptCandidate sc;
        sc.bundle = makeNetworkBundle(cand.topoSpec, cand.routing);
        sc.traffic = std::make_unique<UniformRandom>(
            sc.bundle.topology->numNodes());
        swept.push_back(std::move(sc));
        const SweptCandidate &ref = swept.back();

        NetworkConfig netcfg;
        netcfg.vcDepth = cand.vcDepth;
        netcfg.channelPeriod = cand.channelPeriod;
        netcfg.shards = spec.shards;
        const std::string series =
            std::string("design ") + toString(cand.family) + " " +
            cand.topoSpec + "/" + cand.routing + " cp" +
            std::to_string(cand.channelPeriod) + " vd" +
            std::to_string(cand.vcDepth);
        for (const double load : spec.loads) {
            engine.addLoadPoint(series, *ref.bundle.topology,
                                *ref.bundle.routing, *ref.traffic,
                                netcfg, spec.expcfg, load);
        }
    }
    engine.run();

    const auto &records = engine.records();
    std::size_t rec = 0;
    for (const std::size_t si : survivors) {
        DesignPoint pt;
        pt.candidate = si;
        for (std::size_t l = 0; l < spec.loads.size(); ++l)
            pt.loads.push_back(records[rec++].load);
        // Saturation throughput: accepted rate at the highest
        // offered load whose window completed.
        for (auto it = pt.loads.rbegin(); it != pt.loads.rend();
             ++it) {
            if (it->valid()) {
                pt.satThroughput = it->accepted;
                break;
            }
        }
        if (!pt.loads.empty() && pt.loads.front().latencyValid())
            pt.lowLoadLatency = pt.loads.front().avgLatency;
        res.points.push_back(std::move(pt));
    }

    // Pareto frontier over (cost/terminal down, saturation
    // throughput up): sort by cost, keep every point that beats the
    // best throughput seen so far.
    std::vector<std::size_t> order;
    for (std::size_t i = 0; i < res.points.size(); ++i) {
        if (std::isfinite(res.points[i].satThroughput))
            order.push_back(i);
    }
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  const DesignCandidate &ca =
                      res.candidates[res.points[a].candidate];
                  const DesignCandidate &cb =
                      res.candidates[res.points[b].candidate];
                  if (ca.costPerTerminal != cb.costPerTerminal)
                      return ca.costPerTerminal < cb.costPerTerminal;
                  if (res.points[a].satThroughput !=
                      res.points[b].satThroughput)
                      return res.points[a].satThroughput >
                             res.points[b].satThroughput;
                  return res.points[a].candidate <
                         res.points[b].candidate;
              });
    double best = -1.0;
    for (const std::size_t i : order) {
        if (res.points[i].satThroughput > best) {
            best = res.points[i].satThroughput;
            res.points[i].onFrontier = true;
            res.frontier.push_back(i);
        }
    }
    return res;
}

namespace
{

void
writeCandidateJson(std::ostringstream &os, const DesignCandidate &c,
                   std::size_t index)
{
    os << "    {\"index\": " << index << ", \"family\": \""
       << toString(c.family) << "\", \"topology\": ";
    jsonAppendString(os, c.topoSpec);
    os << ", \"routing\": ";
    jsonAppendString(os, c.routing);
    os << ", \"channel_period\": " << c.channelPeriod
       << ", \"vc_depth\": " << c.vcDepth
       << ", \"num_vcs\": " << c.numVcs
       << ", \"terminals\": " << c.terminals
       << ", \"routers\": " << c.routers
       << ", \"radix\": " << c.radix
       << ", \"diameter\": " << c.diameter
       << ", \"avg_min_hops\": ";
    jsonAppendNumber(os, c.avgMinHops);
    os << ", \"channels\": " << c.channels
       << ", \"bisection_arcs\": " << c.bisectionArcs
       << ", \"throughput_bound\": ";
    jsonAppendNumber(os, c.throughputBound);
    os << ", \"cost_dollars\": ";
    jsonAppendNumber(os, c.costDollars);
    os << ", \"power_watts\": ";
    jsonAppendNumber(os, c.powerWatts);
    os << ", \"cost_per_terminal\": ";
    jsonAppendNumber(os, c.costPerTerminal);
    os << ", \"power_per_terminal\": ";
    jsonAppendNumber(os, c.powerPerTerminal);
    os << ", \"pruned\": " << (c.pruned ? "true" : "false")
       << ", \"prune_reason\": ";
    if (c.pruned)
        jsonAppendString(os, c.pruneReason);
    else
        os << "null";
    os << "}";
}

void
writePointJson(std::ostringstream &os, const DesignPoint &pt)
{
    os << "    {\"candidate\": " << pt.candidate << ", \"loads\": [";
    for (std::size_t i = 0; i < pt.loads.size(); ++i) {
        const LoadPointResult &r = pt.loads[i];
        if (i > 0)
            os << ", ";
        os << "{\"offered\": ";
        jsonAppendNumber(os, r.offered);
        os << ", \"accepted\": ";
        jsonAppendNumber(os, r.accepted);
        os << ", \"avg_latency\": ";
        jsonAppendNumber(os, r.avgLatency);
        os << ", \"avg_network_latency\": ";
        jsonAppendNumber(os, r.avgNetworkLatency);
        os << ", \"avg_hops\": ";
        jsonAppendNumber(os, r.avgHops);
        os << ", \"p99_latency\": ";
        jsonAppendNumber(os, r.p99Latency);
        os << ", \"status\": \"" << toString(r.status)
           << "\", \"valid\": " << (r.valid() ? "true" : "false")
           << ", \"measured_packets\": " << r.measuredPackets << "}";
    }
    os << "], \"saturation_throughput\": ";
    jsonAppendNumber(os, pt.satThroughput);
    os << ", \"low_load_latency\": ";
    jsonAppendNumber(os, pt.lowLoadLatency);
    os << ", \"on_frontier\": " << (pt.onFrontier ? "true" : "false")
       << "}";
}

} // namespace

std::string
designSearchToJson(const DesignSpec &spec,
                   const DesignSearchResult &result,
                   std::uint64_t master_seed, const std::string &bench)
{
    // Bit-identity contract: nothing in this document may depend on
    // wall clock, thread count or shard count.
    std::ostringstream os;
    os << "{\n  \"schema\": \"" << kParetoJsonSchema << "\",\n";
    os << "  \"bench\": ";
    jsonAppendString(os, bench);
    os << ",\n  \"git\": ";
    jsonAppendString(os, gitDescribe());
    os << ",\n  \"seed\": " << master_seed;
    os << ",\n  \"spec\": {\"min_terminals\": " << spec.minTerminals
       << ", \"max_terminal_factor\": ";
    jsonAppendNumber(os, spec.maxTerminalFactor);
    os << ", \"max_cost_per_terminal\": ";
    jsonAppendNumber(os, spec.maxCostPerTerminal);
    os << ", \"max_power_per_terminal\": ";
    jsonAppendNumber(os, spec.maxPowerPerTerminal);
    os << ", \"loads\": [";
    for (std::size_t i = 0; i < spec.loads.size(); ++i) {
        if (i > 0)
            os << ", ";
        jsonAppendNumber(os, spec.loads[i]);
    }
    os << "], \"warmup_cycles\": " << spec.expcfg.warmupCycles
       << ", \"measure_cycles\": " << spec.expcfg.measureCycles
       << ", \"drain_cycles\": " << spec.expcfg.drainCycles << "}";

    std::size_t pruned = 0;
    for (const auto &c : result.candidates)
        pruned += c.pruned ? 1 : 0;
    // Families actually swept, sorted unique (the map is ordered).
    std::map<std::string, int> families;
    for (const auto &c : result.candidates) {
        if (!c.pruned)
            ++families[toString(c.family)];
    }
    std::string family_list;
    for (const auto &[name, count] : families) {
        (void)count;
        if (!family_list.empty())
            family_list += ",";
        family_list += name;
    }
    os << ",\n  \"metadata\": {\"candidates_enumerated\": "
       << result.candidates.size() << ", \"candidates_pruned\": "
       << pruned << ", \"survivors_swept\": " << result.points.size()
       << ", \"frontier_size\": " << result.frontier.size()
       << ", \"families\": ";
    jsonAppendString(os, family_list);
    os << "}";

    os << ",\n  \"candidates\": [\n";
    for (std::size_t i = 0; i < result.candidates.size(); ++i) {
        writeCandidateJson(os, result.candidates[i], i);
        os << (i + 1 < result.candidates.size() ? ",\n" : "\n");
    }
    os << "  ],\n  \"points\": [\n";
    for (std::size_t i = 0; i < result.points.size(); ++i) {
        writePointJson(os, result.points[i]);
        os << (i + 1 < result.points.size() ? ",\n" : "\n");
    }
    os << "  ],\n  \"frontier\": [\n";
    for (std::size_t i = 0; i < result.frontier.size(); ++i) {
        const DesignPoint &pt = result.points[result.frontier[i]];
        const DesignCandidate &c = result.candidates[pt.candidate];
        os << "    {\"candidate\": " << pt.candidate
           << ", \"family\": \"" << toString(c.family)
           << "\", \"topology\": ";
        jsonAppendString(os, c.topoSpec);
        os << ", \"cost_per_terminal\": ";
        jsonAppendNumber(os, c.costPerTerminal);
        os << ", \"power_per_terminal\": ";
        jsonAppendNumber(os, c.powerPerTerminal);
        os << ", \"saturation_throughput\": ";
        jsonAppendNumber(os, pt.satThroughput);
        os << ", \"low_load_latency\": ";
        jsonAppendNumber(os, pt.lowLoadLatency);
        os << "}";
        os << (i + 1 < result.frontier.size() ? ",\n" : "\n");
    }
    os << "  ]\n}";
    return os.str();
}

bool
writeDesignSearch(const std::string &path, const DesignSpec &spec,
                  const DesignSearchResult &result,
                  std::uint64_t master_seed, const std::string &bench)
{
    std::ofstream out(path);
    if (!out) {
        FBFLY_WARN("cannot open '", path,
                   "' for design-search JSON output");
        return false;
    }
    out << designSearchToJson(spec, result, master_seed, bench)
        << "\n";
    out.flush();
    if (!out) {
        FBFLY_WARN("short write of design-search JSON to '", path,
                   "'");
        return false;
    }
    return true;
}

} // namespace fbfly
