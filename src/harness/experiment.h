/**
 * @file
 * Experiment harness: the open-loop and batch methodologies of paper
 * Section 3.2.
 *
 * Open loop: "The simulator is warmed up under load without taking
 * measurements until steady-state is reached.  Then a sample of
 * injected packets is labeled during a measurement interval.  The
 * simulation is run until all labeled packets exit the system."
 * driveLoadPoint() is the one implementation of this schedule;
 * runLoadPoint() composes it with Bernoulli injection, reporting
 * average labeled latency and the accepted throughput over the
 * measurement window; a bounded drain detects saturation (labeled
 * packets that never leave).
 *
 * Batch: loadBatch() + runBatch() measure the time to deliver a
 * fixed batch, normalized by batch size — the dynamic-response /
 * transient-load-imbalance experiment of Figure 5.
 */

#ifndef FBFLY_HARNESS_EXPERIMENT_H
#define FBFLY_HARNESS_EXPERIMENT_H

#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "network/network.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/delivery_oracle.h"
#include "sim/liveness.h"

namespace fbfly
{

class Topology;
class RoutingAlgorithm;
class TrafficPattern;

/**
 * Observability knobs for one run (docs/OBSERVABILITY.md).
 *
 * Both collectors are per-run (per sweep point) state: each
 * runLoadPoint call owns its sink and registry, written only from
 * the thread executing that point — so results are bit-identical for
 * any sweep thread count.
 */
struct ObsConfig
{
    /** Record flit-lifecycle events into a TraceSink (exported to
     *  Chrome trace_event JSON by the benches' --trace-out). */
    bool traceEnabled = false;
    /** Trace ring capacity in events.  Every sweep point keeps its
     *  ring alive until the post-run merge, so this default is
     *  deliberately smaller than TraceSink::kDefaultCapacity:
     *  256 Ki events (~12 MiB) per point, oldest overwritten first
     *  (the tail of a run is the interesting part). */
    std::size_t traceCapacity = std::size_t{1} << 18;
    /** Event mask preset (kFull records everything). */
    TraceLevel traceLevel = TraceLevel::kFull;
    /** Collect a MetricsRegistry (counters, latency gauges, channel
     *  utilization / VC occupancy series). */
    bool metricsEnabled = false;
    /** Sampling window for the utilization / occupancy series. */
    std::uint64_t metricsWindowCycles = 100;
};

/**
 * Experiment phasing parameters.
 */
struct ExperimentConfig
{
    /** Cycles of unmeasured warm-up under load. */
    int warmupCycles = 10000;
    /** Cycles during which injected packets are labeled. */
    int measureCycles = 10000;
    /** Drain bound; labeled packets still inside => saturated. */
    int drainCycles = 100000;
    /** Per-run master seed. */
    std::uint64_t seed = 1;
    /**
     * Audit end-to-end delivery with a DeliveryOracle: every labeled
     * packet is fingerprinted at injection and checked at ejection
     * for exactly-once, in-order (per flow), uncorrupted delivery.
     * The audit is reported in LoadPointResult::delivery and warned
     * about when violated; it never changes simulation behavior.
     */
    bool verifyDelivery = true;

    /** Observability collection (off by default: tracing costs one
     *  dead branch per record site, metrics cost nothing). */
    ObsConfig obs;

    /** Stall diagnosis & recovery (sim/liveness.h).  The default
     *  (kAbort) keeps the pre-liveness behavior — a watchdog fire
     *  ends the run as kStalled — but the dump now carries the
     *  classified diagnosis. */
    LivenessConfig liveness;
};

/**
 * How a load-point run ended.  Every run terminates with an explicit
 * status — a run can no longer hang silently.
 */
enum class LoadPointStatus
{
    /** All labeled packets were delivered. */
    kDelivered,
    /** The drain bound was hit with labeled packets still inside
     *  (classic saturation). */
    kSaturated,
    /** Labeled packets were dropped as unreachable (fault sets that
     *  cut off destinations, or exhausted misroute budgets). */
    kUnreachable,
    /** The forward-progress watchdog fired: nothing moved for
     *  netcfg.watchdogCycles cycles with work still pending
     *  (deadlock/livelock).  diagnostics holds the stall dump. */
    kStalled,
    /** Network::validate() rejected the configuration before the
     *  run; diagnostics holds the validation report. */
    kInvalidConfig,
    /** The run stalled at least once but liveness recovery (see
     *  ExperimentConfig::liveness) unblocked it and the run then
     *  completed.  `liveness` holds the structured diagnosis; killed
     *  victims are counted in measuredDropped / flitsDropped and in
     *  the oracle's expected losses. */
    kDeadlockRecovered,
};

/** Short human-readable name of a status ("delivered", ...). */
const char *toString(LoadPointStatus s);

/**
 * Result of one offered-load point.
 *
 * NaN convention: every derived statistic (accepted, the latency
 * aggregates, avgHops) defaults to NaN and is only overwritten with a
 * real number once the corresponding observation exists.  A run that
 * is rejected pre-flight (kInvalidConfig) or wedges before the
 * measurement window completes (kStalled) therefore reports NaN —
 * never a fake 0.0 that a sweep consumer could silently average.
 * Use valid() / latencyValid() before aggregating.
 */
struct LoadPointResult
{
    /** Not-a-number: the value of every statistic that was never
     *  observed. */
    static constexpr double kUnknown =
        std::numeric_limits<double>::quiet_NaN();

    /** Offered load, flits/node/cycle. */
    double offered = 0.0;
    /** Accepted throughput over the measurement window,
     *  flits/node/cycle; NaN unless the window completed. */
    double accepted = kUnknown;
    /** Average labeled packet latency (creation -> ejection), cycles;
     *  NaN with no labeled ejections, biased when saturated. */
    double avgLatency = kUnknown;
    /** Average labeled latency excluding source queueing. */
    double avgNetworkLatency = kUnknown;
    /** Average channel traversals of labeled packets. */
    double avgHops = kUnknown;
    /** 99th-percentile labeled latency (exact; the histogram grows
     *  to cover the largest observed latency). */
    double p99Latency = kUnknown;
    /** Labeled packets still undelivered at the drain bound
     *  (kept for backward compatibility: status == kSaturated). */
    bool saturated = false;
    std::uint64_t measuredPackets = 0;

    /** How the run ended (always set). */
    LoadPointStatus status = LoadPointStatus::kDelivered;
    /** Labeled packets dropped as unreachable. */
    std::uint64_t measuredDropped = 0;
    /** Total flits dropped over the whole run. */
    std::uint64_t flitsDropped = 0;
    /** Stall dump + liveness diagnosis (kStalled) or validation
     *  report (kInvalidConfig); empty otherwise. */
    std::string diagnostics;

    /** Liveness recovery attempts applied during the run. */
    int recoveries = 0;
    /** Pre-serialized fbfly-sweep-v1 `"liveness": {...}` fragment
     *  (sim/liveness.h livenessJson()); empty when the run never
     *  stalled. */
    std::string liveness;

    /** Link-layer reliability counters summed over all inter-router
     *  channels (all zero when the retry protocol is off). */
    LinkStats link;
    /** Retransmissions per wire attempt (NaN with zero attempts,
     *  i.e. before any flit crossed an inter-router channel). */
    double retransmitRate = kUnknown;

    /** End-to-end delivery audit (see ExperimentConfig ::
     *  verifyDelivery); all-zero when auditing was off. */
    OracleReport delivery;
    /** True when the delivery oracle ran for this point. */
    bool deliveryChecked = false;

    /** Flit-lifecycle trace (null unless obs.traceEnabled).  Shared
     *  so sweep records can be copied cheaply; the sink is immutable
     *  once the run ends. */
    std::shared_ptr<const TraceSink> trace;
    /** Collected metrics (null unless obs.metricsEnabled). */
    std::shared_ptr<const MetricsRegistry> metrics;

    /**
     * True when the measurement window completed, i.e. `accepted`
     * is a real observation.  False for pre-flight rejections and
     * for runs that stalled before the window closed.
     */
    bool valid() const { return !std::isnan(accepted); }

    /**
     * True when the latency aggregates (avgLatency, p99Latency, ...)
     * are trustworthy: the run completed its window, did not
     * saturate (a saturated run only reports the survivors' latency,
     * a biased sample), and at least one labeled packet ejected.
     */
    bool latencyValid() const
    {
        return valid() && !saturated && measuredPackets > 0;
    }
};

/**
 * Result of one batch run.
 */
struct BatchResult
{
    int batchSize = 0;
    /** Cycles from time zero until the whole batch is delivered. */
    Cycle completionTime = 0;
    /** completionTime / batchSize (Figure 5's y-axis). */
    double normalizedLatency = 0.0;
};

/** Salt of the load-point injection stream: a run seeded with s
 *  draws its arrivals from seed s ^ kInjectionSeedSalt ("Inject1"). */
inline constexpr std::uint64_t kInjectionSeedSalt = 0x496e6a65637431ULL;

/**
 * The parts of a load-point run that differ between entry points
 * (see driveLoadPoint).  The per-cycle hooks run every simulated
 * cycle, so they must not allocate on every call.
 */
struct LoadPointHooks
{
    /** Offer traffic for the cycle about to be stepped; @p measuring
     *  is true inside the measurement window (label the packets). */
    std::function<void(Network &net, bool measuring)> inject;
    /** Optional: observe the cycle just stepped, after the ObsSampler
     *  tick and before the liveness tick.  @p metrics is null unless
     *  obs.metricsEnabled. */
    std::function<void(Network &net, const MetricsRegistry *metrics)>
        afterStep;
    /** Optional: add results once the run has ended (stalled runs
     *  included), after the shared result and metrics fill.
     *  @p metrics is null unless obs.metricsEnabled. */
    std::function<void(const Network &net, MetricsRegistry *metrics)>
        finish;
};

/**
 * The open-loop run driver every load-point entry point composes:
 * pre-flight Network::validate() -> delivery oracle -> trace sink ->
 * Network -> ObsSampler -> warm-up / measure / drain, each cycle
 * inject, step, sample, observe and liveness tick (diagnosis and
 * recovery, ExperimentConfig::liveness) -> the shared result and
 * `net.*` / `link.*` / `trace.*` / `latency.*` metrics fill -> status.
 *
 * netcfg.numVcs and netcfg.seed are overridden (algo.numVcs(),
 * expcfg.seed).  The result's `offered` is left to the caller.
 */
LoadPointResult driveLoadPoint(const Topology &topo,
                               RoutingAlgorithm &algo,
                               const TrafficPattern &pattern,
                               NetworkConfig netcfg,
                               const ExperimentConfig &expcfg,
                               const LoadPointHooks &hooks);

/**
 * Run one offered-load point on a freshly built network (Bernoulli
 * injection through driveLoadPoint).
 *
 * @param topo    topology (outlives the call).
 * @param algo    routing algorithm; cfg.numVcs is overridden to
 *                algo.numVcs().
 * @param pattern traffic pattern.
 * @param netcfg  network configuration (vcDepth etc.).
 * @param expcfg  phasing parameters.
 * @param offered offered load in flits/node/cycle.
 */
LoadPointResult runLoadPoint(const Topology &topo,
                             RoutingAlgorithm &algo,
                             const TrafficPattern &pattern,
                             NetworkConfig netcfg,
                             const ExperimentConfig &expcfg,
                             double offered);

/**
 * Sweep several offered loads (independent runs).
 */
std::vector<LoadPointResult> runLoadSweep(
    const Topology &topo, RoutingAlgorithm &algo,
    const TrafficPattern &pattern, NetworkConfig netcfg,
    const ExperimentConfig &expcfg, const std::vector<double> &loads);

/**
 * Estimate saturation throughput: the accepted rate when offered
 * load exceeds capacity (runs at offered = 1.0).
 */
double measureSaturationThroughput(const Topology &topo,
                                   RoutingAlgorithm &algo,
                                   const TrafficPattern &pattern,
                                   NetworkConfig netcfg,
                                   const ExperimentConfig &expcfg);

/**
 * Deliver a batch of @p batch_size packets per node and report the
 * normalized completion time (Figure 5).
 *
 * @param max_cycles safety bound on the run length.
 */
BatchResult runBatch(const Topology &topo, RoutingAlgorithm &algo,
                     const TrafficPattern &pattern,
                     NetworkConfig netcfg, std::uint64_t seed,
                     int batch_size, Cycle max_cycles = 10000000);

} // namespace fbfly

#endif // FBFLY_HARNESS_EXPERIMENT_H
