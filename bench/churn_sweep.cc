/**
 * @file
 * Dynamic service mode on the 8-ary 2-flat (k' = 14, n' = 1, N = 64).
 *
 * Each point runs a long-horizon *service* simulation
 * (harness/churn.h): links and routers fail and are repaired on
 * MTBF/MTTR renewal schedules, offered load follows a diurnal
 * triangle ramp, and an epoch adaptor re-selects the routing policy
 * (MIN AD / UGAL / VAL) from channel-utilization telemetry.  The
 * sweep compares a churn-free control against increasing link and
 * link+router churn intensities.
 *
 * Headline columns: accepted throughput over the horizon, p99 and
 * p99.9 labeled latency, service events (down/repair), recovery-time
 * SLO (events recovered, mean and max fault->throughput-restored
 * cycles), and the end-to-end delivery audit — which must be clean
 * across every kill/repair/reconfiguration transition (losses to
 * link repair are accounted as expected drops, never as silent
 * corruption).
 *
 * Expected shape: the churn-free row reproduces a plain adaptive run;
 * under churn, every down event inside the horizon yields a finite
 * recovery-time sample (throughput restored once the repair lands and
 * the adaptor re-balances), p99.9 inflates well before p99 moves, and
 * the oracle stays clean throughout.
 *
 * Deterministic for any --threads N: churn schedules are derived from
 * per-point seeds on per-entity RNG streams, and the adaptor reads
 * per-point telemetry only (docs/FAULTS.md, "Churn and repair").
 */

#include <chrono>
#include <cstdio>

#include "bench_util.h"
#include "harness/churn.h"
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

    NetworkConfig netcfg;
    netcfg.vcDepth = 8; // scaled with the small network
    netcfg.watchdogCycles = 50000; // churn runs are watchdog-backed

    ChurnSweepConfig cfg;
    cfg.threads = opt.threads;
    cfg.masterSeed = opt.seed;
    // Tight SLO: a single-router loss dips delivered throughput by
    // ~1/8, so a 95% floor actually registers router events while a
    // single link loss stays absorbed by adaptive routing.
    cfg.run.recoveryFraction = 0.95;
    if (opt.trace) {
        cfg.run.expcfg.obs.traceEnabled = true;
        cfg.run.expcfg.obs.metricsEnabled = true;
    }

    const auto addCase = [&](const std::string &label,
                             double link_mtbf, double link_mttr,
                             double router_mtbf, double router_mttr) {
        ChurnCase c;
        c.label = label;
        c.churn.linkMtbf = link_mtbf;
        c.churn.linkMttr = link_mttr;
        c.churn.routerMtbf = router_mtbf;
        c.churn.routerMttr = router_mttr;
        cfg.cases.push_back(std::move(c));
    };
    addCase("no churn", 0, 0, 0, 0);
    addCase("link mtbf=8000", 8000, 400, 0, 0);
    addCase("link mtbf=4000", 4000, 400, 0, 0);
    addCase("link mtbf=4000 + router mtbf=16000", 4000, 400, 16000,
            800);

    std::printf("# dynamic service mode, %s, uniform random, "
                "horizon=%llu cycles\n",
                topo.name().c_str(),
                static_cast<unsigned long long>(
                    cfg.run.expcfg.measureCycles));
    std::printf("%-36s %10s %8s %8s %6s\n", "case", "status",
                "accept", "p99", "oracle");

    const auto t0 = std::chrono::steady_clock::now();
    const std::vector<SweepPointRecord> records =
        runChurnSweep(topo, pattern, netcfg, cfg);
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();

    for (const auto &rec : records) {
        const LoadPointResult &r = rec.load;
        std::printf("%-36s %10s ", rec.series.c_str(),
                    toString(r.status));
        std::printf("%8.4f ", r.accepted);
        if (r.measuredPackets > 0)
            std::printf("%8.1f ", r.p99Latency);
        else
            std::printf("%8s ", "-");
        std::printf("%6s\n",
                    !r.deliveryChecked || r.delivery.clean()
                        ? "clean"
                        : "DIRTY");
        // p99.9, event counts and the recovery-time distribution
        // live in the point's churn extension block.
        std::printf("    %s\n", rec.extraJson.c_str());
    }
    const auto num = [](double v) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%g", v);
        return std::string(buf);
    };
    finishBench(
        records, wall, opt, "churn_sweep",
        "long-horizon link/router churn with repair, diurnal "
        "load, epoch-driven routing adaptation and recovery-time "
        "SLOs (8-ary 2-flat, uniform random)",
        {
            {"warmup_cycles",
             std::to_string(cfg.run.expcfg.warmupCycles)},
            {"horizon_cycles",
             std::to_string(cfg.run.expcfg.measureCycles)},
            {"base_load", num(cfg.run.baseLoad)},
            {"peak_load", num(cfg.run.peakLoad)},
            {"diurnal_period", std::to_string(cfg.run.diurnalPeriod)},
            {"epoch_cycles", std::to_string(cfg.run.epochCycles)},
            {"recovery_window",
             std::to_string(cfg.run.recoveryWindow)},
            {"recovery_fraction", num(cfg.run.recoveryFraction)},
        });
    return 0;
}
