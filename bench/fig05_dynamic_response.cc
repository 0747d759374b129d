/**
 * @file
 * Figure 5: dynamic response — time to deliver a batch of worst-case
 * traffic, normalized to batch size.
 *
 * Small batches expose transient load imbalance: UGAL's greedy
 * allocator lets all of a router's inputs pick the same short
 * minimal queue before the queueing state updates, so it performs
 * very poorly; UGAL-S fixes the allocator but still picks random
 * intermediates; CLOS AD removes both sources of imbalance.  As the
 * batch grows, normalized latency approaches the inverse of each
 * algorithm's throughput (~2.0 at 50%).
 *
 * Every (batch size, algorithm) cell is an independent runBatch
 * simulation; they execute on the parallel sweep engine (--threads
 * N, --json PATH; docs/SWEEPS.md).
 */

#include <cstdio>

#include "bench_util.h"
#include "routing/clos_ad.h"
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

    FlattenedButterfly topo(32, 2);
    AdversarialNeighbor wc(topo.numNodes(), topo.k());

    Valiant val(topo);
    Ugal ugal(topo, false);
    Ugal ugal_s(topo, true);
    ClosAd clos_ad(topo);
    RoutingAlgorithm *algos[] = {&val, &ugal, &ugal_s, &clos_ad};
    constexpr std::size_t kAlgos = std::size(algos);

    const std::vector<int> batches = {1,  2,   5,   10,  20,
                                      50, 100, 200, 500, 1000};

    // Queue batch-major, algorithm-minor — the same order the table
    // prints — so record index i maps to (row i / kAlgos,
    // column i % kAlgos).
    SweepEngine engine(sweepConfig(opt));
    for (const int batch : batches) {
        for (auto *a : algos) {
            NetworkConfig netcfg;
            netcfg.vcDepth = 32 / a->numVcs();
            char series[48];
            std::snprintf(series, sizeof series, "fig5 %s",
                          a->name().c_str());
            engine.addBatch(series, topo, *a, wc, netcfg, batch);
        }
    }
    const auto &records = engine.run();

    std::printf("Figure 5: batch completion time / batch size "
                "(worst-case traffic, N=1024)\n\n");
    std::printf("%8s", "batch");
    for (auto *a : algos)
        std::printf(" %10s", a->name().c_str());
    std::printf("\n");

    for (std::size_t row = 0; row < batches.size(); ++row) {
        std::printf("%8d", batches[row]);
        for (std::size_t col = 0; col < kAlgos; ++col) {
            const auto &rec = records[row * kAlgos + col];
            std::printf(" %10.2f", normalizedLatency(rec.completionTime,
                                                     rec.batchSize));
        }
        std::printf("\n");
    }

    finishBench(engine, opt, "fig05_dynamic_response",
                "Figure 5: batch completion time, worst-case "
                "traffic");
    return 0;
}
