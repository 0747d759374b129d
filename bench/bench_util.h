/**
 * @file
 * Shared helpers for the figure-reproduction benches.
 *
 * Each bench binary regenerates one figure or table of the paper,
 * printing the same rows/series the paper plots.  The simulated
 * benches use shorter warm-up/measurement windows than a production
 * study would (the paper does not specify its windows); this adds
 * noise but does not change the shapes the paper's conclusions rest
 * on.  EXPERIMENTS.md records paper-vs-measured for every bench.
 *
 * The simulated benches share a tiny command line (docs/SWEEPS.md):
 *
 *   --threads N   run independent sweep points on N worker threads
 *                 (0: all hardware threads; results are bit-identical
 *                 for every N — see SweepEngine's determinism
 *                 contract);
 *   --json PATH   additionally emit the results as a
 *                 "fbfly-sweep-v1" JSON document;
 *   --seed S      master seed (per-point seeds derive from it);
 *   --trace       collect flit-lifecycle traces + metrics per point
 *                 (docs/OBSERVABILITY.md) and write a merged Chrome
 *                 trace_event JSON viewable in Perfetto;
 *   --trace-out PATH  where to write that trace (implies --trace;
 *                 default: <bench>.trace.json).
 */

#ifndef FBFLY_BENCH_BENCH_UTIL_H
#define FBFLY_BENCH_BENCH_UTIL_H

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "harness/result_writer.h"
#include "harness/sweep.h"
#include "obs/trace_export.h"
#include "routing/min_adaptive.h"
#include "topology/flattened_butterfly.h"
#include "traffic/injection.h"
#include "traffic/traffic_pattern.h"

namespace fbfly::bench
{

/** Default experiment phasing for the 1K-node benches. */
inline ExperimentConfig
defaultPhasing()
{
    ExperimentConfig e;
    e.warmupCycles = 1000;
    e.measureCycles = 1000;
    e.drainCycles = 3000;
    e.seed = 2007; // ISCA'07
    return e;
}

/** Offered loads for a latency-vs-load curve up to @p cap. */
inline std::vector<double>
loadSweep(double cap, double step = 0.1)
{
    std::vector<double> loads;
    for (double l = step; l <= cap + 1e-9; l += step)
        loads.push_back(l);
    return loads;
}

/** The load points used for curves that saturate near 50% (the
 *  worst-case pattern and the tapered Clos): dense near the
 *  paper's 0.45 comparison point, bounded past saturation. */
inline std::vector<double>
halfCapacitySweep()
{
    return {0.1, 0.2, 0.3, 0.4, 0.45, 0.5, 0.55};
}

/** Shared command-line options of the simulated benches. */
struct BenchOptions
{
    /** Sweep worker threads (--threads; 0: all hardware threads). */
    int threads = 1;
    /** JSON output path (--json; empty: no JSON). */
    std::string jsonPath;
    /** Master seed (--seed). */
    std::uint64_t seed = 2007; // ISCA'07
    /** Collect per-point traces + metrics (--trace /
     *  --trace-out; docs/OBSERVABILITY.md). */
    bool trace = false;
    /** Chrome-trace output path (--trace-out; empty: derive
     *  <bench>.trace.json). */
    std::string traceOut;
    /** Intra-point step-engine shards (--shards; NetworkConfig::
     *  shards — results are bit-identical for every N). */
    int shards = 1;
};

/**
 * Parse --threads / --json / --seed (each also accepts the
 * --flag=value spelling).  Prints usage and exits on bad input.
 */
inline BenchOptions
parseBenchOptions(int argc, char **argv)
{
    const auto usage = [&](int status) {
        std::fprintf(
            stderr,
            "usage: %s [--threads N] [--shards N] [--json PATH] "
            "[--seed S] [--trace] [--trace-out PATH]\n"
            "  --threads N  worker threads for independent sweep "
            "points\n"
            "               (0: all hardware threads; default 1; "
            "results are\n"
            "               identical for every N)\n"
            "  --shards N   step-engine shards inside each point "
            "(default 1;\n"
            "               results are bit-identical for every N)\n"
            "  --json PATH  also write results as fbfly-sweep-v1 "
            "JSON\n"
            "  --seed S     master seed (default 2007)\n"
            "  --trace      collect flit traces + metrics per point "
            "and write\n"
            "               a Chrome trace_event JSON (Perfetto-"
            "loadable)\n"
            "  --trace-out PATH  trace output path (implies --trace; "
            "default\n"
            "               <bench>.trace.json)\n",
            argv[0]);
        std::exit(status);
    };
    const auto value = [&](int &i, const char *arg,
                           const char *name) -> const char * {
        const std::size_t n = std::strlen(name);
        if (std::strncmp(arg, name, n) == 0 && arg[n] == '=')
            return arg + n + 1;
        if (std::strcmp(arg, name) == 0) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s: missing value for %s\n",
                             argv[0], name);
                usage(2);
            }
            return argv[++i];
        }
        return nullptr;
    };

    BenchOptions opt;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--help") == 0 ||
            std::strcmp(arg, "-h") == 0) {
            usage(0);
        } else if (const char *v = value(i, arg, "--threads")) {
            char *end = nullptr;
            opt.threads = static_cast<int>(std::strtol(v, &end, 10));
            if (end == v || *end != '\0' || opt.threads < 0) {
                std::fprintf(stderr, "%s: bad --threads '%s'\n",
                             argv[0], v);
                usage(2);
            }
        } else if (const char *v = value(i, arg, "--shards")) {
            char *end = nullptr;
            opt.shards = static_cast<int>(std::strtol(v, &end, 10));
            if (end == v || *end != '\0' || opt.shards < 1) {
                std::fprintf(stderr, "%s: bad --shards '%s'\n",
                             argv[0], v);
                usage(2);
            }
        } else if (const char *v = value(i, arg, "--json")) {
            opt.jsonPath = v;
        } else if (std::strcmp(arg, "--trace") == 0) {
            opt.trace = true;
        } else if (const char *v = value(i, arg, "--trace-out")) {
            opt.trace = true;
            opt.traceOut = v;
        } else if (const char *v = value(i, arg, "--seed")) {
            char *end = nullptr;
            opt.seed = std::strtoull(v, &end, 0);
            if (end == v || *end != '\0') {
                std::fprintf(stderr, "%s: bad --seed '%s'\n",
                             argv[0], v);
                usage(2);
            }
        } else {
            std::fprintf(stderr, "%s: unknown argument '%s'\n",
                         argv[0], arg);
            usage(2);
        }
    }
    return opt;
}

/** SweepConfig for parsed options. */
inline SweepConfig
sweepConfig(const BenchOptions &opt)
{
    SweepConfig cfg;
    cfg.threads = opt.threads;
    cfg.masterSeed = opt.seed;
    return cfg;
}

/** Apply the --trace decision to an ExperimentConfig: tracing
 *  implies metrics collection (the trace and its reconciling
 *  counters travel together; docs/OBSERVABILITY.md). */
inline ExperimentConfig
withObs(ExperimentConfig e, const BenchOptions &opt)
{
    if (opt.trace) {
        e.obs.traceEnabled = true;
        e.obs.metricsEnabled = true;
    }
    return e;
}

/**
 * Cycles/second of the bare step loop, timed serially: the
 * @p k-ary @p n-flat under MIN AD and uniform random traffic with
 * unlabeled Bernoulli injection at @p load, warmed for @p warmup
 * untimed cycles, then timed over @p cycles.
 */
inline double
timedStepRate(int k, int n, NetworkConfig cfg, double load, int warmup,
              int cycles)
{
    FlattenedButterfly topo(k, n);
    MinAdaptive algo(topo);
    UniformRandom pattern(topo.numNodes());
    cfg.numVcs = algo.numVcs();
    Network net(topo, algo, &pattern, cfg);
    BernoulliInjection inj(load, 1, 7);
    const auto run = [&](int count) {
        for (int c = 0; c < count; ++c) {
            inj.tick(net, false);
            net.step();
        }
    };

    run(warmup); // into steady state
    const auto t0 = std::chrono::steady_clock::now();
    run(cycles);
    const double secs =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - t0)
            .count();
    return secs > 0.0 ? cycles / secs : 0.0;
}

/** Print the header for a latency/throughput series. */
inline void
printSeriesHeader(const std::string &series)
{
    std::printf("\n# series: %s\n", series.c_str());
    std::printf("%10s %10s %12s %10s %6s\n", "offered", "accepted",
                "latency", "hops", "sat");
}

/** Print one load point in the standard format. */
inline void
printPoint(const LoadPointResult &r)
{
    if (!r.latencyValid()) {
        std::printf("%10.3f %10.4f %12s %10s %6s\n", r.offered,
                    r.accepted, "-", "-",
                    r.valid() ? "yes" : toString(r.status));
    } else {
        std::printf("%10.3f %10.4f %12.2f %10.2f %6s\n", r.offered,
                    r.accepted, r.avgLatency, r.avgHops, "no");
    }
}

/**
 * Print a completed engine's load-point records, series by series
 * (records must have been queued series-contiguously, which
 * addLoadSweep guarantees).
 */
inline void
printLoadRecords(const std::vector<SweepPointRecord> &records)
{
    const std::string *series = nullptr;
    for (const auto &rec : records) {
        if (rec.kind != SweepPointKind::kLoadPoint)
            continue;
        if (series == nullptr || rec.series != *series) {
            printSeriesHeader(rec.series);
            series = &rec.series;
        }
        printPoint(rec.load);
    }
}

/**
 * Wrap-up shared by the simulated benches: report the parallel
 * timing and write the JSON document when requested.
 */
inline void
finishBench(const SweepEngine &engine, const BenchOptions &opt,
            const std::string &bench_name,
            const std::string &description = std::string(),
            std::vector<std::pair<std::string, std::string>> extra =
                {},
            std::vector<std::pair<std::string, double>>
                extra_numbers = {})
{
    std::printf("\n# %zu points, %d thread(s): %.2fs wall "
                "(serial-equivalent %.2fs, speedup %.2fx)\n",
                engine.records().size(), engine.threads(),
                engine.totalWallSeconds(),
                engine.pointWallSecondsSum(),
                engine.totalWallSeconds() > 0.0
                    ? engine.pointWallSecondsSum() /
                          engine.totalWallSeconds()
                    : 0.0);

    // Merge per-point traces (strictly in point-index order — the
    // determinism contract) into one Perfetto-loadable file.
    std::string trace_file;
    if (opt.trace) {
        std::vector<TracePoint> points;
        points.reserve(engine.records().size());
        for (const auto &rec : engine.records()) {
            TracePoint pt;
            pt.label = "point " + std::to_string(rec.index) + ": " +
                       rec.series;
            if (rec.kind == SweepPointKind::kLoadPoint) {
                char load[32];
                std::snprintf(load, sizeof load, " @ %.3g",
                              rec.load.offered);
                pt.label += load;
                pt.trace = rec.load.trace.get();
            }
            points.push_back(std::move(pt));
        }
        trace_file = opt.traceOut.empty()
                         ? bench_name + ".trace.json"
                         : opt.traceOut;
        if (writeChromeTrace(trace_file, points))
            std::printf("# wrote %s (open in ui.perfetto.dev)\n",
                        trace_file.c_str());
        else
            trace_file.clear();
    }

    if (opt.jsonPath.empty())
        return;
    SweepRunMeta meta;
    meta.bench = bench_name;
    meta.description = description;
    meta.extra = std::move(extra);
    meta.extraNumbers = std::move(extra_numbers);
    meta.traceFile = trace_file;
    if (writeSweepResults(opt.jsonPath, meta, engine))
        std::printf("# wrote %s\n", opt.jsonPath.c_str());
}

} // namespace fbfly::bench

#endif // FBFLY_BENCH_BENCH_UTIL_H
