/**
 * @file
 * Transient-error resilience on the 8-ary 2-flat (k' = 14, n' = 1,
 * N = 64).
 *
 * For per-flit error rates 0 .. 1e-3 this bench compares MIN AD,
 * UGAL and VAL on uniform random traffic with the link-layer retry
 * protocol enabled: the latency and retransmission overhead at a
 * fixed 0.4 load, and the accepted throughput at saturation
 * (offered = 1.0).  Every algorithm faces the identical
 * deterministic error statistics at each rate, and every measured
 * packet is audited by the end-to-end delivery oracle — the protocol
 * must absorb all injected corruption and erasure without a single
 * drop, duplicate, reorder or corrupted ejection.
 *
 * Expected shape: the zero-rate row is the protocol-overhead control
 * and reproduces the error-free baseline bit-identically (the retry
 * protocol is timing-transparent when it never retransmits).  As the
 * rate grows, latency inflates by the retransmission round trips and
 * saturation throughput erodes by the replayed wire slots; the
 * retransmit rate tracks the injected error rate closely because
 * nearly every error costs one go-back-N replay window.
 *
 * All runs are watchdog-backed and end with an explicit status.  The
 * cells execute on the parallel sweep engine (--threads N,
 * --json PATH; docs/SWEEPS.md); error draws are channel-private, so
 * results are bit-identical at any thread count (docs/FAULTS.md).
 */

#include <chrono>
#include <cstdio>

#include "bench_util.h"
#include "harness/resilience.h"
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

    ResilienceConfig cfg;
    cfg.exp = withObs(defaultPhasing(), opt);
    cfg.exp.seed = opt.seed;
    cfg.threads = opt.threads;
    cfg.net.vcDepth = 8; // scaled with the small network

    std::printf("# transient-error resilience, %s, uniform random\n",
                topo.name().c_str());
    std::printf("%10s %12s %8s %10s %10s %12s %8s %6s\n", "rate",
                "algorithm", "latency", "sat_tput", "retx_rate",
                "crc_rej", "timeouts", "oracle");
    std::vector<SweepPointRecord> records;
    const auto t0 = std::chrono::steady_clock::now();
    const auto points =
        runResilienceSweep(topo, algos, pattern, cfg, &records);
    const double wall =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - t0)
            .count();
    for (const auto &pt : points) {
        std::printf("%10.1e %12s ", pt.errorRate,
                    pt.algorithm.c_str());
        if (pt.fixedLoad.latencyValid())
            std::printf("%8.2f", pt.fixedLoad.avgLatency);
        else
            std::printf("%8s", toString(pt.fixedLoad.status));
        std::printf(" %10.4f", pt.saturation.accepted);
        if (std::isnan(pt.fixedLoad.retransmitRate))
            std::printf(" %10s", "-");
        else
            std::printf(" %10.2e", pt.fixedLoad.retransmitRate);
        const LinkStats &ls = pt.fixedLoad.link;
        const bool clean =
            (!pt.fixedLoad.deliveryChecked ||
             pt.fixedLoad.delivery.clean()) &&
            (!pt.saturation.deliveryChecked ||
             pt.saturation.delivery.clean());
        std::printf(" %12llu %8llu %6s\n",
                    static_cast<unsigned long long>(ls.crcRejected),
                    static_cast<unsigned long long>(ls.timeouts),
                    clean ? "clean" : "DIRTY");
    }

    finishBench(records, wall, opt, "resilience_sweep",
                "latency/throughput inflation and retransmission cost "
                "versus transient bit-error rate (8-ary 2-flat, "
                "uniform random, link-level retry enabled)",
                resilienceMetadata(cfg));
    return 0;
}
