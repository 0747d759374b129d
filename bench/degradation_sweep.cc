/**
 * @file
 * Graceful degradation under random link failures on the 8-ary
 * 2-flat (k' = 14, n' = 1, N = 64).
 *
 * For failed-link fractions 0 .. 10% this bench compares MIN AD,
 * UGAL and VAL on uniform random traffic: the saturation throughput
 * (offered = 1.0) and a low-load latency point (offered = 0.2).
 * Every algorithm sees the identical deterministic fault set at each
 * fraction.
 *
 * Expected shape: with 0 faults each algorithm reproduces its
 * fault-free baseline; as links fail, the adaptive algorithms (MIN
 * AD, UGAL) mask the dead ports and spread load over the surviving
 * channels of each dimension's complete graph, retaining strictly
 * more accepted throughput than oblivious VAL, whose dimension-order
 * subroutes pay an escape detour for every failed channel they
 * cross.
 *
 * All runs are watchdog-backed and end with an explicit status —
 * the sweep cannot hang (docs/FAULTS.md).  The cells execute on the
 * parallel sweep engine (--threads N, --json PATH; docs/SWEEPS.md).
 */

#include <chrono>
#include <cstdio>

#include "bench_util.h"
#include "harness/degradation.h"
#include "routing/min_adaptive.h"
#include "routing/ugal.h"
#include "routing/valiant.h"
#include "topology/flattened_butterfly.h"
#include "traffic/traffic_pattern.h"

using namespace fbfly;
using namespace fbfly::bench;

int
main(int argc, char **argv)
{
    const BenchOptions opt = parseBenchOptions(argc, argv);

    FlattenedButterfly topo(8, 2);
    UniformRandom pattern(topo.numNodes());

    MinAdaptive min_ad(topo);
    Ugal ugal(topo, false);
    Valiant val(topo);
    const std::vector<RoutingAlgorithm *> algos = {&min_ad, &ugal,
                                                   &val};

    DegradationConfig cfg;
    cfg.exp = withObs(defaultPhasing(), opt);
    cfg.exp.seed = opt.seed;
    cfg.threads = opt.threads;
    cfg.net.vcDepth = 8; // scaled with the small network

    std::printf("# graceful degradation, %s, uniform random\n",
                topo.name().c_str());
    std::printf("%10s %7s %12s %10s %12s %8s %12s %12s\n", "fraction",
                "links", "algorithm", "sat_tput", "sat_status",
                "latency", "low_status", "dropped");
    std::vector<SweepPointRecord> records;
    const auto t0 = std::chrono::steady_clock::now();
    const auto points =
        runDegradationSweep(topo, algos, pattern, cfg, &records);
    const double wall =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - t0)
            .count();
    for (const auto &pt : points) {
        std::printf("%10.3f %4d/%-2d %12s %10.4f %12s ", pt.fraction,
                    pt.failedLinks, pt.totalLinks,
                    pt.algorithm.c_str(), pt.saturation.accepted,
                    toString(pt.saturation.status));
        if (pt.lowLoad.latencyValid())
            std::printf("%8.2f", pt.lowLoad.avgLatency);
        else
            std::printf("%8s", "-");
        std::printf(" %12s %12llu\n", toString(pt.lowLoad.status),
                    static_cast<unsigned long long>(
                        pt.lowLoad.measuredDropped));
    }

    finishBench(records, wall, opt, "degradation_sweep",
                "graceful degradation under random link failures "
                "(8-ary 2-flat, uniform random)");
    return 0;
}
