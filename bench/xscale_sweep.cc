/**
 * @file
 * Extreme-scale sweep: k-ary n-flats from ~4k to ~10^5 terminals,
 * plus the self-relative shard-speedup and peak-RSS study of the
 * step engine (docs/DESIGN.md "Step engine",
 * docs/SWEEPS.md).
 *
 * Two questions, both paper-motivated — the flattened butterfly's
 * selling point is cost-efficient scaling to large node counts
 * (Sec. 6 sizes configurations up to 64k nodes), so the simulator
 * must reach that regime too:
 *
 *  1. *Does it fit?*  Low-load latency points on the 16-ary 3-flat
 *     (4k terminals), the 32-ary 3-flat (32k) and the 48-ary 3-flat
 *     (~110k) through the ordinary sweep engine, with the pooled
 *     channel/VC state keeping peak RSS per terminal bounded
 *     (`peak_rss_per_terminal_bytes` metadata; the shard-determinism
 *     suite asserts the same 16 KiB/terminal budget).
 *
 *  2. *Does sharding pay?*  A direct step-loop timing on the
 *     32k-terminal point at --shards 1/2/4/8, reported as
 *     `xscale_shard{N}_cycles_per_sec` plus self-relative
 *     `xscale_shard_speedup_{N}` ratios.  Results are bit-identical
 *     at every shard count (tests/test_shard_determinism.cc), so the
 *     speedup is free of semantic risk.  `hw_threads` records the
 *     machine's concurrency: tools/perf_smoke.py only enforces the
 *     >= 3x @ 8-shard floor when at least 8 hardware threads exist
 *     (on fewer cores the phased engine can only break even).
 *
 * Committed baseline: BENCH_xscale.json (regenerate on a clean HEAD
 * with `xscale_sweep --json BENCH_xscale.json`).
 */

#include <cstdio>
#include <thread>

#include "bench_util.h"
#include "common/rss.h"
#include "routing/min_adaptive.h"
#include "topology/flattened_butterfly.h"
#include "traffic/traffic_pattern.h"

using namespace fbfly;
using namespace fbfly::bench;

int
main(int argc, char **argv)
{
    const BenchOptions opt = parseBenchOptions(argc, argv);

    // Scale ladder: 4k / 32k / ~110k terminals.  Topologies and
    // routers live for the whole run (the engine borrows them).
    FlattenedButterfly t16(16, 3); //   4096 terminals,  256 routers
    FlattenedButterfly t32(32, 3); //  32768 terminals, 1024 routers
    FlattenedButterfly t48(48, 3); // 110592 terminals, 2304 routers
    MinAdaptive min16(t16);
    MinAdaptive min32(t32);
    MinAdaptive min48(t48);
    UniformRandom ur16(t16.numNodes());
    UniformRandom ur32(t32.numNodes());
    UniformRandom ur48(t48.numNodes());

    std::printf("xscale: k-ary 3-flats at N=%lld / %lld / %lld "
                "(shards=%d)\n",
                static_cast<long long>(t16.numNodes()),
                static_cast<long long>(t32.numNodes()),
                static_cast<long long>(t48.numNodes()), opt.shards);

    NetworkConfig netcfg;
    netcfg.vcDepth = 4;
    netcfg.shards = opt.shards;

    // Short low-load windows: the study is memory/scale, not
    // saturation throughput (loads far below the ~50% worst-case
    // bound, so the points are valid latency samples).
    ExperimentConfig mid;
    mid.warmupCycles = 100;
    mid.measureCycles = 200;
    mid.drainCycles = 2000;
    mid.seed = opt.seed;
    mid = withObs(mid, opt);
    ExperimentConfig big = mid;
    big.warmupCycles = 50;
    big.measureCycles = 100;

    SweepEngine engine(sweepConfig(opt));
    engine.addLoadSweep("xscale 16-ary 3-flat / uniform", t16, min16,
                        ur16, netcfg, mid, {0.01, 0.02});
    engine.addLoadSweep("xscale 32-ary 3-flat / uniform", t32, min32,
                        ur32, netcfg, mid, {0.01, 0.02});
    engine.addLoadSweep("xscale 48-ary 3-flat / uniform", t48, min48,
                        ur48, netcfg, big, {0.01});
    printLoadRecords(engine.run());

    // Self-relative shard scaling on the 32k-terminal point.
    std::printf("\n# shard scaling (32-ary 3-flat, 32768 "
                "terminals)\n");
    std::vector<std::pair<std::string, double>> extra_numbers;
    double rate1 = 0.0;
    double speedup8 = 0.0;
    for (const int shards : {1, 2, 4, 8}) {
        NetworkConfig cfg;
        cfg.vcDepth = 4;
        cfg.shards = shards;
        // Modest load: 100 warm cycles, 400 timed.
        const double rate = timedStepRate(32, 3, cfg, 0.05, 100, 400);
        if (shards == 1)
            rate1 = rate;
        const double speedup = rate1 > 0.0 ? rate / rate1 : 0.0;
        if (shards == 8)
            speedup8 = speedup;
        std::printf("step rate @ %d shard(s): %.0f cycles/s "
                    "(speedup %.2fx)\n",
                    shards, rate, speedup);
        char key[48];
        std::snprintf(key, sizeof key,
                      "xscale_shard%d_cycles_per_sec", shards);
        extra_numbers.emplace_back(key, rate);
        if (shards > 1) {
            std::snprintf(key, sizeof key, "xscale_shard_speedup_%d",
                          shards);
            extra_numbers.emplace_back(key, speedup);
        }
    }

    const double hw_threads =
        static_cast<double>(std::thread::hardware_concurrency());
    const auto rss = static_cast<double>(peakRssBytes());
    const double terminals_largest =
        static_cast<double>(t48.numNodes());
    extra_numbers.emplace_back("hw_threads", hw_threads);
    extra_numbers.emplace_back("terminals_largest",
                               terminals_largest);
    extra_numbers.emplace_back("peak_rss_bytes", rss);
    extra_numbers.emplace_back("peak_rss_per_terminal_bytes",
                               rss / terminals_largest);
    std::printf("\nhw threads: %.0f\n", hw_threads);
    std::printf("peak RSS: %.0f bytes (%.1f bytes/terminal at "
                "N=%.0f)\n",
                rss, rss / terminals_largest, terminals_largest);
    if (hw_threads >= 8 && speedup8 < 3.0)
        std::printf("WARNING: 8-shard speedup %.2fx below the 3x "
                    "target despite %.0f hardware threads\n",
                    speedup8, hw_threads);

    finishBench(engine, opt, "xscale_sweep",
                "extreme-scale k-ary 3-flat sweep + self-relative "
                "shard speedups and peak-RSS-per-terminal gauge",
                {}, std::move(extra_numbers));
    return 0;
}
