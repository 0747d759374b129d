/**
 * @file
 * Batch response: deliver a burst of adversarial traffic and watch
 * how each adaptive routing algorithm copes with the transient —
 * the experiment behind the paper's Figure 5 and its argument for
 * sequential allocators.
 *
 * Usage: batch_response [batch_size]
 */

#include <cstdio>
#include <cstdlib>

#include "harness/experiment.h"
#include "routing/clos_ad.h"
#include "routing/ugal.h"
#include "routing/valiant.h"
#include "topology/flattened_butterfly.h"
#include "traffic/traffic_pattern.h"

using namespace fbfly;

int
main(int argc, char **argv)
{
    const int batch = argc > 1 ? std::atoi(argv[1]) : 10;
    if (batch < 1) {
        std::fprintf(stderr, "usage: %s [batch_size>=1]\n", argv[0]);
        return 1;
    }

    FlattenedButterfly topo(32, 2);
    AdversarialNeighbor pattern(topo.numNodes(), topo.k());

    Valiant val(topo);
    Ugal ugal(topo, false);
    Ugal ugal_s(topo, true);
    ClosAd clos_ad(topo);
    RoutingAlgorithm *algos[] = {&val, &ugal, &ugal_s, &clos_ad};

    std::printf("batch of %d packets/node, worst-case pattern, "
                "%s\n\n", batch, topo.name().c_str());
    std::printf("%-8s %14s %18s\n", "algo", "completion", "cycles/"
                "packet");
    for (auto *algo : algos) {
        NetworkConfig netcfg;
        netcfg.vcDepth = 32 / algo->numVcs();
        const BatchResult r =
            runBatch(topo, *algo, pattern, netcfg, 2007, batch);
        std::printf("%-8s %14llu %18.2f\n", algo->name().c_str(),
                    static_cast<unsigned long long>(
                        r.completionTime),
                    normalizedLatency(r.completionTime, batch));
    }
    std::printf("\nThe greedy UGAL allocator piles every input of a "
                "router onto the\nsame minimal queue before the "
                "queueing state updates; the sequential\nallocators "
                "(UGAL-S, CLOS AD) spread the burst immediately.\n");
    return 0;
}
