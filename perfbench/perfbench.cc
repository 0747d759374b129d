/**
 * @file
 * Benchmark program: runs one workload for a time budget and prints
 * one JSON document of raw measurements on stdout.
 *
 *   fbfly_perfbench --workload NAME --seed S --seconds T --trace 0|1
 *
 * Every measurement times a call into the library's public API from
 * outside: the Topology / RoutingAlgorithm / Network constructors,
 * runLoadPoint, enumerateDesignCandidates and runDesignSearch.  Calls
 * record the process's CPU time (all threads) and their wall time;
 * setup steps record CPU time only.  CPU time is what run.py reports,
 * because on a shared host wall time mostly measures how long the
 * process waited for a core.  The program repeats the workload until
 * the budget is spent; each repetition builds everything afresh with
 * the same seed.  With --trace 1 each repetition also runs the load
 * point through the forwarding decorators of layers.h, in alternating
 * order with the untraced call.  run.py turns the repetitions into
 * medians and checks the simulated statistics.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include <unistd.h>

#include "common/rss.h"
#include "harness/design_search.h"
#include "harness/experiment.h"
#include "layers.h"
#include "network/network.h"
#include "routing/min_adaptive.h"
#include "routing/ugal.h"
#include "topology/flattened_butterfly.h"
#include "traffic/traffic_pattern.h"

using namespace fbfly;
using perfbench::Clock;
using perfbench::secondsSince;
using perfbench::Stopwatch;

namespace
{

struct Options
{
    std::string workload;
    std::uint64_t seed = 2007;
    double seconds = 10.0;
    bool trace = false;
};

/** A load point on a k-ary n-flat: single-flit packets, Bernoulli
 *  injection, one shard. */
struct FlatWorkload
{
    const char *name;
    int k;
    int n;
    /** UGAL-S (sequential allocator) instead of MIN AD. */
    bool ugalS;
    /** Adversarial-neighbor instead of uniform random traffic. */
    bool adversarial;
    double offered;
    int vcDepth;
    int warmupCycles;
    int measureCycles;
    int drainCycles;
};

// README.md gives the reason for each choice.
constexpr FlatWorkload kFlatWorkloads[] = {
    {"paper1k_uniform", 32, 2, false, false, 0.9, 32, 1000, 1000, 3000},
    {"paper1k_worstcase", 32, 2, true, true, 0.45, 16, 1000, 1000, 3000},
    {"xscale32k", 32, 3, false, false, 0.02, 4, 100, 200, 2000},
};

constexpr const char *kDesignSearch = "design_search";
/** Sweep threads of the design-search workload.  One worker still
 *  goes through the sweep engine's thread pool; with two, the CPU
 *  time of a search varied about three times as much between runs. */
constexpr int kDesignThreads = 1;

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed S --seconds T "
                 "--trace 0|1\n  workloads:",
                 argv0);
    for (const FlatWorkload &w : kFlatWorkloads)
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, " %s\n", kDesignSearch);
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options opt;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (i + 1 >= argc)
            usage(argv[0]);
        const char *v = argv[++i];
        char *end = nullptr;
        if (std::strcmp(arg, "--workload") == 0) {
            opt.workload = v;
            haveWorkload = true;
            continue;
        }
        if (std::strcmp(arg, "--seed") == 0)
            opt.seed = std::strtoull(v, &end, 10);
        else if (std::strcmp(arg, "--seconds") == 0)
            opt.seconds = std::strtod(v, &end);
        else if (std::strcmp(arg, "--trace") == 0)
            opt.trace = std::strtol(v, &end, 10) != 0;
        else
            usage(argv[0]);
        if (end == v || *end != '\0')
            usage(argv[0]);
    }
    if (!haveWorkload || !(opt.seconds >= 0.0))
        usage(argv[0]);
    return opt;
}

/** Exact decimal for a double (round-trips), or null for NaN. */
std::string
num(double v)
{
    if (std::isnan(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** Resident set size now, in bytes (0 if unreadable). */
std::int64_t
currentRssBytes()
{
    std::ifstream statm("/proc/self/statm");
    std::int64_t pages = 0;
    std::int64_t resident = 0;
    if (!(statm >> pages >> resident))
        return 0;
    return resident * sysconf(_SC_PAGESIZE);
}

/** Simulated statistics of one load point, plus its operation
 *  counts: an operation is a labeled packet, and it fails when it is
 *  dropped, left undelivered, or flagged by the delivery oracle. */
std::string
flatStats(const LoadPointResult &r)
{
    const OracleReport &d = r.delivery;
    std::uint64_t failed = d.tracked - d.delivered + d.duplicates +
                           d.corruptions +
                           (d.orderEnforced ? d.reorders : 0);
    if (r.status == LoadPointStatus::kStalled ||
        r.status == LoadPointStatus::kInvalidConfig || failed > d.tracked)
        failed = d.tracked;
    std::ostringstream os;
    os << "{\"status\": \"" << toString(r.status) << "\""
       << ", \"oracle_clean\": "
       << (r.deliveryChecked && d.clean() ? "true" : "false")
       << ", \"attempted\": " << d.tracked << ", \"failed\": " << failed
       << ", \"accepted\": " << num(r.accepted)
       << ", \"avg_latency\": " << num(r.avgLatency)
       << ", \"p99_latency\": " << num(r.p99Latency)
       << ", \"avg_hops\": " << num(r.avgHops)
       << ", \"measured_packets\": " << r.measuredPackets << "}";
    return os.str();
}

/** Topology, routing and traffic of one repetition. */
struct FlatParts
{
    std::unique_ptr<FlattenedButterfly> topo;
    std::unique_ptr<RoutingAlgorithm> algo;
    std::unique_ptr<TrafficPattern> pattern;
};

/** Build the parts and, to time it, the Network that runLoadPoint
 *  builds from them; append their CPU times to @p os as one
 *  sample. */
FlatParts
flatSetup(const FlatWorkload &w, const NetworkConfig &netcfg,
          std::uint64_t seed, std::ostringstream &os)
{
    FlatParts p;
    const Stopwatch topologyTime;
    p.topo = std::make_unique<FlattenedButterfly>(w.k, w.n);
    const double topologyS = topologyTime.cpuSeconds();

    const Stopwatch routingTime;
    if (w.ugalS)
        p.algo = std::make_unique<Ugal>(*p.topo, true);
    else
        p.algo = std::make_unique<MinAdaptive>(*p.topo);
    const double routingS = routingTime.cpuSeconds();

    if (w.adversarial)
        p.pattern = std::make_unique<AdversarialNeighbor>(
            p.topo->numNodes(), p.topo->k());
    else
        p.pattern = std::make_unique<UniformRandom>(p.topo->numNodes());

    NetworkConfig cfg = netcfg;
    cfg.numVcs = p.algo->numVcs();
    cfg.seed = seed;
    double networkS = 0.0;
    std::int64_t networkBytes = 0;
    {
        const std::int64_t rss0 = currentRssBytes();
        const Stopwatch networkTime;
        const Network net(*p.topo, *p.algo, p.pattern.get(), cfg);
        networkS = networkTime.cpuSeconds();
        networkBytes = currentRssBytes() - rss0;
    }
    os << "{\"topology_s\": " << num(topologyS)
       << ", \"routing_s\": " << num(routingS)
       << ", \"network_s\": " << num(networkS)
       << ", \"network_bytes\": " << networkBytes << "}";
    return p;
}

/** One repetition of a flat workload: the setup, then runLoadPoint
 *  on its parts, untraced and, with --trace 1, through the
 *  decorators. */
std::string
flatRep(const FlatWorkload &w, const Options &opt, int rep)
{
    NetworkConfig netcfg;
    netcfg.vcDepth = w.vcDepth;
    ExperimentConfig expcfg;
    expcfg.warmupCycles = w.warmupCycles;
    expcfg.measureCycles = w.measureCycles;
    expcfg.drainCycles = w.drainCycles;
    expcfg.seed = opt.seed;

    std::ostringstream os;
    os << "{\"setup\": ";
    const FlatParts parts = flatSetup(w, netcfg, opt.seed, os);
    const FlattenedButterfly &topo = *parts.topo;
    RoutingAlgorithm &algo = *parts.algo;
    const TrafficPattern &pattern = *parts.pattern;

    std::string untraced;
    std::string traced;
    const auto runUntraced = [&] {
        const Stopwatch time;
        const LoadPointResult r = runLoadPoint(topo, algo, pattern,
                                               netcfg, expcfg, w.offered);
        const double cpu = time.cpuSeconds();
        untraced = "{\"wall_s\": " + num(time.wallSeconds()) +
                   ", \"cpu_s\": " + num(cpu) +
                   ", \"stats\": " + flatStats(r) + "}";
    };
    const auto runTraced = [&] {
        perfbench::TracedRouting routing(algo);
        const perfbench::TracedTraffic traffic(pattern);
        const Stopwatch time;
        const LoadPointResult r = runLoadPoint(topo, routing, traffic,
                                               netcfg, expcfg, w.offered);
        const double cpu = time.cpuSeconds();
        std::ostringstream ts;
        ts << "{\"wall_s\": " << num(time.wallSeconds())
           << ", \"cpu_s\": " << num(cpu) << ", \"stats\": " << flatStats(r)
           << ", \"routing\": {\"calls\": " << routing.totals.calls
           << ", \"busy_s\": " << num(routing.totals.busySeconds)
           << ", \"drops\": " << routing.drops << "}"
           << ", \"traffic\": {\"calls\": " << traffic.totals.calls
           << ", \"busy_s\": " << num(traffic.totals.busySeconds) << "}}";
        traced = ts.str();
    };
    // Alternate the order so drift over a run hits both sides alike.
    if (opt.trace && rep % 2 == 1) {
        runTraced();
        runUntraced();
    } else {
        runUntraced();
        if (opt.trace)
            runTraced();
    }
    os << ", \"untraced\": " << untraced;
    if (opt.trace)
        os << ", \"traced\": " << traced;
    os << "}";
    return os.str();
}

/** The spec of bench/design_search (terminals in [60, 132]). */
DesignSpec
designSpec(std::uint64_t seed)
{
    DesignSpec spec;
    spec.minTerminals = 60;
    spec.maxTerminalFactor = 2.2;
    spec.loads = {0.2, 0.5, 0.9};
    spec.expcfg.warmupCycles = 500;
    spec.expcfg.measureCycles = 500;
    spec.expcfg.drainCycles = 10000;
    spec.expcfg.seed = seed;
    return spec;
}

/** Simulated results of a design search.  An operation is a swept
 *  load point, and it fails when it stalls, is rejected as invalid,
 *  or the delivery oracle flags it.  Latencies average the swept
 *  candidates at the lowest load; accepted averages their
 *  saturation throughput (the highest load). */
std::string
designStats(const DesignSearchResult &res)
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t packets = 0;
    double hopSum = 0.0;
    double latSum = 0.0;
    double p99Sum = 0.0;
    int latN = 0;
    double satSum = 0.0;
    int satN = 0;
    for (const DesignPoint &pt : res.points) {
        for (const LoadPointResult &r : pt.loads) {
            ++attempted;
            if (r.status == LoadPointStatus::kStalled ||
                r.status == LoadPointStatus::kInvalidConfig ||
                (r.deliveryChecked && !r.delivery.clean()))
                ++failed;
            packets += r.measuredPackets;
            if (r.measuredPackets > 0)
                hopSum += r.avgHops * static_cast<double>(r.measuredPackets);
        }
        if (!pt.loads.empty() && pt.loads.front().latencyValid()) {
            latSum += pt.loads.front().avgLatency;
            p99Sum += pt.loads.front().p99Latency;
            ++latN;
        }
        if (!std::isnan(pt.satThroughput)) {
            satSum += pt.satThroughput;
            ++satN;
        }
    }
    std::size_t pruned = 0;
    for (const DesignCandidate &c : res.candidates)
        pruned += c.pruned ? 1 : 0;

    const double nan = LoadPointResult::kUnknown;
    std::ostringstream os;
    os << "{\"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"candidates\": " << res.candidates.size()
       << ", \"pruned\": " << pruned << ", \"swept\": " << res.points.size()
       << ", \"accepted\": " << num(satN > 0 ? satSum / satN : nan)
       << ", \"avg_latency\": " << num(latN > 0 ? latSum / latN : nan)
       << ", \"p99_latency\": " << num(latN > 0 ? p99Sum / latN : nan)
       << ", \"avg_hops\": "
       << num(packets > 0 ? hopSum / static_cast<double>(packets) : nan)
       << ", \"measured_packets\": " << packets << ", \"frontier\": [";
    for (std::size_t i = 0; i < res.frontier.size(); ++i) {
        const DesignPoint &pt = res.points[res.frontier[i]];
        const DesignCandidate &c = res.candidates[pt.candidate];
        os << (i > 0 ? ", " : "") << "{\"family\": \""
           << toString(c.family) << "\", \"topology\": \"" << c.topoSpec
           << "\", \"cost_per_terminal\": " << num(c.costPerTerminal)
           << ", \"saturation_throughput\": " << num(pt.satThroughput)
           << "}";
    }
    os << "]}";
    return os.str();
}

/** One repetition of the design search: enumeration and pruning
 *  (setup), then the full search. */
std::string
designRep(const Options &opt)
{
    const DesignSpec spec = designSpec(opt.seed);
    std::ostringstream os;
    const Stopwatch enumerateTime;
    const std::vector<DesignCandidate> candidates =
        enumerateDesignCandidates(spec);
    os << "{\"setup\": {\"enumerate_s\": "
       << num(enumerateTime.cpuSeconds())
       << ", \"candidates\": " << candidates.size() << "}";

    SweepConfig sweep;
    sweep.threads = kDesignThreads;
    sweep.masterSeed = opt.seed;
    const Stopwatch time;
    const DesignSearchResult res = runDesignSearch(spec, sweep);
    const double cpu = time.cpuSeconds();
    os << ", \"untraced\": {\"wall_s\": " << num(time.wallSeconds())
       << ", \"cpu_s\": " << num(cpu) << ", \"stats\": " << designStats(res) << "}}";
    return os.str();
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseOptions(argc, argv);

    const FlatWorkload *flat = nullptr;
    for (const FlatWorkload &w : kFlatWorkloads) {
        if (opt.workload == w.name)
            flat = &w;
    }
    if (flat == nullptr && opt.workload != kDesignSearch)
        usage(argv[0]);

    const long long terminals =
        flat != nullptr ? FlattenedButterfly(flat->k, flat->n).numNodes()
                        : 0;
    // Repeat while the next repetition, if it takes as long as the
    // last, would end less than half of it past the budget.
    std::ostringstream reps;
    const Clock::time_point start = Clock::now();
    double last = 0.0;
    std::uint64_t peakRss = 0;
    for (int rep = 0;
         rep == 0 || secondsSince(start) + last / 2 < opt.seconds; ++rep) {
        const Clock::time_point t0 = Clock::now();
        reps << (rep > 0 ? ",\n  " : "")
             << (flat != nullptr ? flatRep(*flat, opt, rep)
                                 : designRep(opt));
        last = secondsSince(t0);
        // Later repetitions reuse freed memory; with sweep threads
        // their peak depends on scheduling.
        if (rep == 0)
            peakRss = peakRssBytes();
    }

    std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %s,\n"
                " \"build\": {\"type\": \"%s\", \"flags\": \"%s\", "
                "\"compiler\": \"%s\"},\n"
                " \"terminals\": %lld, \"peak_rss_bytes\": %llu,\n"
                " \"reps\": [%s]}\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed),
                opt.trace ? "true" : "false", PERFBENCH_BUILD_TYPE,
                PERFBENCH_FLAGS, PERFBENCH_COMPILER,
                terminals,
                static_cast<unsigned long long>(peakRss),
                reps.str().c_str());
    return 0;
}
