/**
 * @file
 * fbflysim — a BookSim-style command-line driver over the fbfly
 * library.  Assemble any topology/routing/traffic combination and
 * sweep offered loads without writing code.
 *
 * Usage:
 *   fbflysim [--topo SPEC] [--routing NAME] [--traffic NAME]
 *            [--loads LO:HI:STEP | --load X] [--buffer FLITS]
 *            [--packet FLITS] [--warmup N] [--measure N]
 *            [--drain N] [--seed N] [--burst MEAN] [--channels]
 *
 * Examples:
 *   fbflysim --topo fbfly-32-2 --routing closad \
 *            --traffic adversarial --loads 0.1:0.6:0.05
 *   fbflysim --topo fattree-512-8-4-4-4 --traffic uniform --load 0.8
 *   fbflysim --topo torus-8-2 --traffic tornado --loads 0.05:0.5:0.05
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "harness/factory.h"
#include "traffic/injection.h"

using namespace fbfly;

namespace
{

struct Options
{
    std::string topo = "fbfly-32-2";
    std::string routing = "default";
    std::string traffic = "uniform";
    std::vector<double> loads;
    int buffer = 32;
    int packet = 1;
    int warmup = 1000;
    int measure = 1000;
    int drain = 5000;
    std::uint64_t seed = 1;
    double burst = 0.0; // 0 => Bernoulli
    bool channels = false;
};

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--topo SPEC] [--routing NAME] [--traffic NAME]\n"
        "          [--loads LO:HI:STEP | --load X] [--buffer FLITS]\n"
        "          [--packet FLITS] [--warmup N] [--measure N]\n"
        "          [--drain N] [--seed N] [--burst MEAN] "
        "[--channels]\n"
        "topologies: fbfly-K-N butterfly-K-N clos-NODES-C-U\n"
        "            fattree-NODES-C-P-U1-U2 hypercube-D torus-K-N\n"
        "            ghc-K1xK2x... dragonfly-P-A-H slimfly-Q-P\n"
        "routing:    default dor minad val ugal ugals closad dest\n"
        "            adaptive ecube tordor ghcmin ghcadapt\n"
        "            dfmin dfugal sfmin sfugal\n"
        "traffic:    uniform adversarial tornado transpose bitcomp\n"
        "            randperm\n",
        argv0);
    std::exit(1);
}

std::vector<double>
parseLoads(const std::string &spec)
{
    std::vector<double> loads;
    double lo = 0.0;
    double hi = 0.0;
    double step = 0.0;
    if (std::sscanf(spec.c_str(), "%lf:%lf:%lf", &lo, &hi, &step) ==
        3 && step > 0.0) {
        for (double l = lo; l <= hi + 1e-9; l += step)
            loads.push_back(l);
    }
    return loads;
}

Options
parse(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        if (a == "--topo") {
            opt.topo = value();
        } else if (a == "--routing") {
            opt.routing = value();
        } else if (a == "--traffic") {
            opt.traffic = value();
        } else if (a == "--loads") {
            opt.loads = parseLoads(value());
            if (opt.loads.empty())
                usage(argv[0]);
        } else if (a == "--load") {
            opt.loads = {std::atof(value())};
        } else if (a == "--buffer") {
            opt.buffer = std::atoi(value());
        } else if (a == "--packet") {
            opt.packet = std::atoi(value());
        } else if (a == "--warmup") {
            opt.warmup = std::atoi(value());
        } else if (a == "--measure") {
            opt.measure = std::atoi(value());
        } else if (a == "--drain") {
            opt.drain = std::atoi(value());
        } else if (a == "--seed") {
            opt.seed = std::strtoull(value(), nullptr, 10);
        } else if (a == "--burst") {
            opt.burst = std::atof(value());
        } else if (a == "--channels") {
            opt.channels = true;
        } else {
            usage(argv[0]);
        }
    }
    if (opt.loads.empty())
        opt.loads = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9};
    return opt;
}

/** One load point through the shared run driver, with optional
 *  bursty injection and channel-load reporting (the peak flits per
 *  cycle any inter-router channel carried in the measurement
 *  window). */
LoadPointResult
runPoint(const Options &opt, const NetworkBundle &bundle,
         const TrafficPattern &pattern, double offered,
         double *max_channel_load)
{
    NetworkConfig netcfg;
    netcfg.numVcs = bundle.routing->numVcs();
    netcfg.vcDepth = std::max(1, opt.buffer / netcfg.numVcs);
    netcfg.packetSize = opt.packet;
    netcfg.channelPeriod = bundle.channelPeriod;

    ExperimentConfig expcfg;
    expcfg.warmupCycles = opt.warmup;
    expcfg.measureCycles = opt.measure;
    expcfg.drainCycles = opt.drain;
    expcfg.seed = opt.seed;

    const std::uint64_t inj_seed = opt.seed ^ kInjectionSeedSalt;
    BernoulliInjection bern(offered, opt.packet, inj_seed);
    std::optional<OnOffInjection> bursty;
    if (opt.burst > 0.0)
        bursty.emplace(offered, std::max(opt.burst, 1.0), opt.packet,
                       inj_seed);
    LoadPointHooks hooks;
    hooks.inject = [&](Network &net, bool measuring) {
        if (bursty.has_value())
            bursty->tick(net, measuring);
        else
            bern.tick(net, measuring);
    };

    // Per-channel flit counts when the measurement window opens and
    // closes.
    std::vector<std::uint64_t> loads0, loads1;
    if (max_channel_load != nullptr) {
        const Cycle open = static_cast<Cycle>(opt.warmup);
        const Cycle close = open + static_cast<Cycle>(opt.measure);
        hooks.afterStep = [&, open, close](Network &net,
                                           const MetricsRegistry *) {
            if (net.now() == open)
                loads0 = net.interRouterFlitCounts();
            if (net.now() == close)
                loads1 = net.interRouterFlitCounts();
        };
    }

    LoadPointResult res =
        driveLoadPoint(*bundle.topology, *bundle.routing, pattern,
                       netcfg, expcfg, hooks);
    res.offered = offered;

    if (max_channel_load != nullptr && !loads1.empty()) {
        // With no warm-up the window opens at cycle 0: zero counts.
        loads0.resize(loads1.size());
        std::uint64_t peak = 0;
        for (std::size_t i = 0; i < loads1.size(); ++i)
            peak = std::max(peak, loads1[i] - loads0[i]);
        *max_channel_load =
            static_cast<double>(peak) / opt.measure;
    }
    return res;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parse(argc, argv);

    NetworkBundle bundle = makeNetworkBundle(opt.topo, opt.routing);
    auto pattern =
        makeTraffic(opt.traffic, bundle.topology->numNodes(),
                    bundle.terminalsPerRouter, opt.seed);

    std::printf("fbflysim: %s | %s (%d VCs) | %s | buffer %d "
                "flits/port | packet %d\n",
                bundle.topology->name().c_str(),
                bundle.routing->name().c_str(),
                bundle.routing->numVcs(), pattern->name().c_str(),
                opt.buffer, opt.packet);
    if (opt.burst > 0.0) {
        std::printf("bursty injection: mean burst %.0f cycles\n",
                    opt.burst);
    }

    std::printf("%10s %10s %12s %10s %6s", "offered", "accepted",
                "latency", "hops", "sat");
    if (opt.channels)
        std::printf(" %12s", "max-chan");
    std::printf("\n");

    for (const double load : opt.loads) {
        double max_chan = 0.0;
        const LoadPointResult r =
            runPoint(opt, bundle, *pattern, load,
                     opt.channels ? &max_chan : nullptr);
        if (!r.latencyValid()) {
            std::printf("%10.3f %10.4f %12s %10s %6s", r.offered,
                        r.accepted, "-", "-",
                        r.valid() ? "yes" : toString(r.status));
        } else {
            std::printf("%10.3f %10.4f %12.2f %10.2f %6s",
                        r.offered, r.accepted, r.avgLatency,
                        r.avgHops, "no");
        }
        if (opt.channels)
            std::printf(" %12.3f", max_chan);
        std::printf("\n");
    }
    return 0;
}
