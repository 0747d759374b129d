/**
 * @file
 * Kernel micro-benchmark: a small fig04-style load sweep on the
 * 8-ary 2-flat, run through the parallel sweep engine, plus a serial
 * timing of the simulator's step-loop hot path.
 *
 * This is the regression guard for the hot paths the figure benches
 * rely on, and the CI smoke test of the sweep engine itself: it runs
 * in seconds, exercises the thread pool (--threads N), and emits the
 * full fbfly-sweep-v1 JSON document (--json PATH) that CI uploads as
 * an artifact.  The JSON's wall_seconds_points_sum /
 * wall_seconds_total ratio ("parallel_speedup") records the
 * sweep-level parallel speedup of the run; the step-rate kernels
 * land in the metadata object.  See docs/SWEEPS.md.
 */

#include <cstdio>

#include "bench_util.h"
#include "routing/min_adaptive.h"
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
    UniformRandom ur(topo.numNodes());
    MinAdaptive min_ad(topo);
    Valiant val(topo);

    ExperimentConfig phasing;
    phasing.warmupCycles = 500;
    phasing.measureCycles = 1000;
    phasing.drainCycles = 3000;
    phasing.seed = opt.seed;
    phasing = withObs(phasing, opt);

    std::printf("micro kernel: sweep-engine smoke sweep on the "
                "8-ary 2-flat (N=%lld)\n",
                static_cast<long long>(topo.numNodes()));

    SweepEngine engine(sweepConfig(opt));
    {
        NetworkConfig netcfg;
        netcfg.vcDepth = 8;
        engine.addLoadSweep("micro MIN AD / uniform", topo, min_ad,
                            ur, netcfg, phasing,
                            loadSweep(0.9, 0.1));
        engine.addLoadSweep("micro VAL / uniform", topo, val, ur,
                            netcfg, phasing,
                            {0.1, 0.2, 0.3, 0.4, 0.45});
    }
    printLoadRecords(engine.run());

    // Serial hot-path kernels (regression guard for the step loop).
    // Rates are numeric metadata (JSON numbers, not strings — the
    // fbfly-sweep-v1 schema test enforces this).
    std::printf("\n# step-loop kernels (serial)\n");
    std::vector<std::pair<std::string, double>> extra_numbers;
    for (const double load : {0.02, 0.1, 0.5, 0.9}) {
        NetworkConfig cfg;
        cfg.vcDepth = 8;
        const double rate = timedStepRate(8, 2, cfg, load, 500, 20000);
        std::printf("step rate @ load %.2f: %.0f cycles/s\n", load,
                    rate);
        char key[48];
        std::snprintf(key, sizeof key,
                      "step_rate_cycles_per_sec_load_%02d",
                      static_cast<int>(load * 100));
        extra_numbers.emplace_back(key, rate);
    }

    finishBench(engine, opt, "micro_kernel",
                "kernel micro-benchmark: sweep-engine smoke sweep + "
                "serial step-loop rates",
                {}, std::move(extra_numbers));
    return 0;
}
