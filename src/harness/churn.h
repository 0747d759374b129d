/**
 * @file
 * Dynamic service mode: long-horizon churn runs with repair,
 * epoch-driven reconfiguration and recovery-time SLOs
 * (docs/FAULTS.md, "Churn and repair").
 *
 * Where runLoadPoint() measures a steady state, runChurnPoint()
 * measures a network *in service*: links and routers fail and are
 * repaired on MTBF/MTTR renewal schedules (fault/churn_model.h),
 * offered load follows a diurnal ramp with periodic job-arrival
 * batches, and an online adaptor re-selects the routing policy
 * (MIN AD / UGAL / VAL, routing/switchable.h) at every epoch boundary
 * from ObsSampler channel-utilization telemetry.
 *
 * Headline robustness metrics, beyond the steady-state aggregates:
 *
 *  - **per-event recovery time** — for every down event inside the
 *    measured horizon, the cycles until trailing-window delivered
 *    throughput returns to `recoveryFraction` of its pre-event level;
 *  - **p99.9 tail latency under churn** — the 99.9th percentile of
 *    labeled packet latency across the whole horizon (reported next
 *    to the steady-state p99);
 *  - **delivery cleanliness across reconfigurations** — the
 *    DeliveryOracle audits exactly-once delivery through every
 *    kill/repair/routing-switch transition; packets lost to link
 *    repair (unacked replay state) are accounted as expected drops.
 *
 * Determinism: the churn schedule, the load shape, the epoch adaptor
 * and every recovery-time sample are pure functions of simulation
 * state, so runChurnSweep() output is bit-identical at any
 * --threads N (tests/test_churn.cc).
 */

#ifndef FBFLY_HARNESS_CHURN_H
#define FBFLY_HARNESS_CHURN_H

#include <string>
#include <vector>

#include "fault/churn_model.h"
#include "harness/experiment.h"
#include "harness/sweep.h"
#include "topology/flattened_butterfly.h"

namespace fbfly
{

class TrafficPattern;

/**
 * Phasing, load-shape, adaptation and SLO knobs of one churn run.
 */
struct ChurnRunConfig
{
    /**
     * Phasing, seed, delivery audit, observability and liveness, as
     * for any load point (harness/experiment.h).  measureCycles is
     * the measured service horizon: every packet injected during it
     * is labeled.  The churn schedule runs on absolute cycles, so
     * size the ChurnModel horizon as warmupCycles + measureCycles.
     * Metrics are force-enabled when epochCycles > 0 (the adaptor
     * reads them).  Churn runs default to kEscapeDrain liveness:
     * repairs already re-decide routes, so a lossless re-decide is
     * the natural first response to a watchdog fire, and the
     * classifier escalates a genuine cyclic deadlock through the
     * same reporting path.  The watchdog itself is
     * NetworkConfig::watchdogCycles, which must be > 0.
     */
    ExperimentConfig expcfg{
        .warmupCycles = 1000,
        .measureCycles = 20000,
        .drainCycles = 100000,
        .seed = 2007,
        .verifyDelivery = true,
        .obs = {},
        .liveness = {RecoveryPolicy::kEscapeDrain},
    };

    /** @name Load shape @{ */
    /** Offered-load floor, flits/node/cycle. */
    double baseLoad = 0.2;
    /** Offered-load peak of the diurnal ramp. */
    double peakLoad = 0.5;
    /** Triangle-wave period of the diurnal ramp, cycles
     *  (0: constant baseLoad). */
    Cycle diurnalPeriod = 8000;
    /** Every jobPeriod cycles a batch "job" arrives at every node
     *  (0: no jobs). */
    Cycle jobPeriod = 0;
    /** Packets per node per job arrival. */
    int jobPacketsPerNode = 0;
    /** @} */

    /** @name Epoch-driven routing adaptation @{ */
    /** Epoch length, cycles (0: no adaptation; the run stays on
     *  MIN AD).  Also the channel-utilization telemetry window. */
    Cycle epochCycles = 500;
    /** max/mean channel utilization at or above this selects UGAL. */
    double imbalanceUgal = 2.5;
    /** max/mean at or above this — with mean utilization headroom
     *  below valMeanUtilMax — selects VAL. */
    double imbalanceVal = 5.0;
    /** Mean-utilization ceiling for the VAL escalation (VAL halves
     *  best-case throughput, so only escalate with headroom). */
    double valMeanUtilMax = 0.25;
    /** @} */

    /** @name Recovery-time SLO detection @{ */
    /** Trailing window (cycles) over which delivered throughput is
     *  tracked for recovery detection. */
    Cycle recoveryWindow = 256;
    /** A down event is "recovered" when trailing-window delivered
     *  flits return to this fraction of their pre-event level. */
    double recoveryFraction = 0.7;
    /** @} */
};

/**
 * Churn-specific results of one run (next to the reused
 * LoadPointResult steady-state aggregates).
 */
struct ChurnStats
{
    /** @name Service events (whole run, incl. warmup and drain) @{ */
    std::uint64_t downEvents = 0;
    std::uint64_t repairEvents = 0;
    /** Episodes the ChurnModel pruned to preserve connectivity. */
    std::uint64_t prunedEpisodes = 0;
    /** @} */

    /** @name Repair losses (folded into the drop counters) @{ */
    std::uint64_t flitsLost = 0;
    std::uint64_t packetsLost = 0;
    std::uint64_t measuredLost = 0;
    /** @} */

    /** @name Epoch adaptation @{ */
    std::uint64_t epochs = 0;
    std::uint64_t routingSwitches = 0;
    /** Packets pinned to each policy at their first decision. */
    std::uint64_t pinnedMinAd = 0;
    std::uint64_t pinnedUgal = 0;
    std::uint64_t pinnedVal = 0;
    /** @} */

    /** p99.9 labeled latency (NaN without labeled ejections). */
    double p999Latency = LoadPointResult::kUnknown;

    /** @name Recovery-time SLO @{ */
    /** Down events inside the measured horizon (tracked events). */
    std::uint64_t recoveryEvents = 0;
    /** Tracked events whose throughput recovered before run end. */
    std::uint64_t recoveredEvents = 0;
    /** Per-recovered-event fault->throughput-restored times. */
    std::vector<double> recoveryCycles;
    /** Mean / max over recoveryCycles (NaN when empty). */
    double meanRecoveryCycles = LoadPointResult::kUnknown;
    double maxRecoveryCycles = LoadPointResult::kUnknown;
    /** @} */
};

/** Result of one dynamic-service run. */
struct ChurnPointResult
{
    /** Steady-state aggregates over the horizon (offered is the
     *  time-average of the load shape; accepted, latency, delivery
     *  audit, status as in runLoadPoint). */
    LoadPointResult load;
    ChurnStats churn;
};

/**
 * Run one dynamic-service point on a freshly built network.
 *
 * @param topo    the flattened butterfly (outlives the call).
 * @param pattern destination-draw traffic pattern.
 * @param churn   churn schedule, or nullptr for a churn-free run of
 *                the same harness (the zero-churn determinism
 *                fixture).  Must be built over @p topo.
 * @param netcfg  network knobs (numVcs/seed are overridden);
 *                watchdogCycles must be > 0, else the run returns
 *                kInvalidConfig.
 * @param cfg     phasing / load-shape / adaptation / SLO knobs.
 */
ChurnPointResult runChurnPoint(const FlattenedButterfly &topo,
                               const TrafficPattern &pattern,
                               const ChurnModel *churn,
                               NetworkConfig netcfg,
                               const ChurnRunConfig &cfg);

/** One sweep case: a labeled churn intensity. */
struct ChurnCase
{
    /** Series label, e.g. "churn mtbf=4000". */
    std::string label;
    /** MTBF/MTTR rates; horizon/seed are filled per point by the
     *  sweep (horizon = warmup + measure cycles, seed derived from
     *  the point index). */
    ChurnConfig churn;
};

/** Churn sweep configuration. */
struct ChurnSweepConfig
{
    /** Worker threads; <= 0 selects all hardware threads. */
    int threads = 1;
    /** Master seed; per-point seeds derive from it by index. */
    std::uint64_t masterSeed = 2007;
    /** Shared run knobs (per-point seed overrides
     *  run.expcfg.seed). */
    ChurnRunConfig run;
    /** The churn intensities to sweep. */
    std::vector<ChurnCase> cases;
};

/**
 * Run every case on a ThreadPool and return index-addressed
 * SweepPointRecords (kind kChurn; steady-state fields in .load, the
 * churn extension serialized into .extraJson) — bit-identical for
 * any cfg.threads (the PR 2 determinism contract).
 */
std::vector<SweepPointRecord> runChurnSweep(
    const FlattenedButterfly &topo, const TrafficPattern &pattern,
    const NetworkConfig &netcfg, const ChurnSweepConfig &cfg);

/**
 * Serialize the churn extension block of one point:
 * `"churn": {...}` with config echo, event/loss counters, epoch
 * adaptation counters, p99.9 and the recovery-time distribution
 * (fbfly-sweep-v1, docs/SWEEPS.md).
 */
std::string churnExtraJson(const ChurnConfig &cc,
                           const ChurnStats &cs);

} // namespace fbfly

#endif // FBFLY_HARNESS_CHURN_H
