/**
 * @file
 * Ablation: bursty (on/off) traffic.
 *
 * The paper argues that transient load imbalance — not just average
 * load — separates the routing algorithms (Section 3.2 / Figure 5).
 * Markov-modulated injection makes that point in an open-loop
 * setting: at the same average offered load, longer bursts punish
 * the oblivious intermediate choice (VAL, UGAL-S) and reward
 * CLOS AD's adaptive intermediates.
 */

#include <cstdio>

#include "harness/experiment.h"
#include "routing/clos_ad.h"
#include "routing/ugal.h"
#include "routing/valiant.h"
#include "topology/flattened_butterfly.h"
#include "traffic/injection.h"
#include "traffic/traffic_pattern.h"

using namespace fbfly;

namespace
{

double
burstyLatency(const FlattenedButterfly &topo, RoutingAlgorithm &algo,
              const TrafficPattern &pattern, double load,
              double burst)
{
    NetworkConfig cfg;
    cfg.vcDepth = 32 / algo.numVcs();
    ExperimentConfig expcfg;
    expcfg.warmupCycles = 1500;
    expcfg.measureCycles = 1500;
    expcfg.drainCycles = 6000;
    expcfg.seed = 2007;

    OnOffInjection onoff(load, burst, 1, 99);
    BernoulliInjection bern(load, 1, 99);
    LoadPointHooks hooks;
    hooks.inject = [&](Network &net, bool measuring) {
        if (burst > 1.0)
            onoff.tick(net, measuring);
        else
            bern.tick(net, measuring);
    };
    return driveLoadPoint(topo, algo, pattern, cfg, expcfg, hooks)
        .avgLatency;
}

} // namespace

int
main()
{
    FlattenedButterfly topo(32, 2);
    AdversarialNeighbor wc(topo.numNodes(), topo.k());

    Valiant val(topo);
    Ugal ugal_s(topo, true);
    ClosAd clos_ad(topo);
    RoutingAlgorithm *algos[] = {&val, &ugal_s, &clos_ad};

    std::printf("Bursty worst-case traffic at 0.40 average load "
                "(N=1024)\n\n");
    std::printf("%12s", "mean burst");
    for (auto *a : algos)
        std::printf(" %10s", a->name().c_str());
    std::printf("\n");

    for (const double burst : {1.0, 8.0, 32.0, 128.0}) {
        std::printf("%12.0f", burst);
        for (auto *a : algos) {
            std::printf(" %10.2f",
                        burstyLatency(topo, *a, wc, 0.40, burst));
        }
        std::printf("\n");
    }
    std::printf("\n(burst 1 = Bernoulli; latencies in cycles; "
                "longer bursts amplify the\ntransient-imbalance gap "
                "between oblivious and adaptive intermediates)\n");
    return 0;
}
