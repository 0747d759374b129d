/**
 * @file
 * ObsSampler — fixed-cadence observability sampling
 * (docs/OBSERVABILITY.md).
 *
 * Ticks once per simulated cycle alongside the network and, at every
 * window boundary, derives:
 *
 *  - **per-channel utilization**: flits carried by each inter-router
 *    channel during the window, divided by the window width — the
 *    mean and max across channels go into MetricsRegistry series
 *    ("obs.channel_util.mean" / "obs.channel_util.max"), and, when a
 *    TraceSink is attached, each channel's own utilization becomes a
 *    counter sample on that channel's track (a Perfetto counter row);
 *  - **per-VC buffer occupancy**: flits buffered network-wide on each
 *    virtual channel, one series per VC ("obs.vc_occ.vc<k>");
 *  - **the window's transient**: accepted throughput over the window
 *    in flits/node/cycle ("obs.accepted"), the mean latency of the
 *    labeled packets ejected in the window, 0 when none
 *    ("obs.window_latency"), and the packets waiting in source
 *    queues at the boundary ("obs.backlog") — step-response
 *    experiments plot these window by window (paper Figure 5's
 *    dynamics as explicit time series).
 *
 * The sampler also integrates the per-channel flit deltas into a
 * running total, which the conservation property test
 * (tests/test_conservation.cc) reconciles against flits-delivered
 * from the DeliveryOracle / NetworkStats.
 *
 * Cost discipline: tick() is a branch + compare per cycle; all real
 * work happens only on window boundaries.
 */

#ifndef FBFLY_OBS_OBS_SAMPLER_H
#define FBFLY_OBS_OBS_SAMPLER_H

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace fbfly
{

class Network;
class MetricsRegistry;

/**
 * Window-cadence sampler over one Network; see the file comment.
 */
class ObsSampler
{
  public:
    /**
     * @param net           the network to observe (must outlive the
     *                      sampler).  Baseline channel counts are
     *                      snapshotted here, so construct the sampler
     *                      at the cycle sampling should start.
     * @param registry      destination for the utilization/occupancy
     *                      series.
     * @param window_cycles window width in cycles (>= 1).
     */
    ObsSampler(Network &net, MetricsRegistry &registry,
               std::uint64_t window_cycles);

    /** Call once per cycle, after Network::step(). */
    void tick();

    /**
     * Close out: emit the final partial window (if any cycles
     * elapsed since the last boundary) and publish summary gauges
     * ("obs.channel_util.overall_mean", "obs.windows").
     * Idempotent; further tick() calls are ignored.
     */
    void finish();

    /**
     * Sum over all inter-router channels of flits carried since
     * construction (integral of utilization over the observed
     * interval).  Valid at any time.
     */
    std::uint64_t integratedChannelFlits() const;

    /** Completed windows so far. */
    std::uint64_t windows() const { return windows_; }

    std::uint64_t windowCycles() const { return windowCycles_; }

  private:
    /** Emit one window covering @p cycles cycles (>= 1). */
    void emitWindow(std::uint64_t cycles);

    Network &net_;
    MetricsRegistry &registry_;
    std::uint64_t windowCycles_;
    /** Cycle at which sampling started (construction time). */
    Cycle startCycle_;
    /** Cycle of the last emitted boundary. */
    Cycle lastBoundary_;
    /** Per-arc flit counts at the last boundary. */
    std::vector<std::uint64_t> lastCounts_;
    /** Per-arc flit counts at construction (integral baseline). */
    std::vector<std::uint64_t> baseCounts_;
    /** Ejected flits and labeled-latency sum/count at the last
     *  boundary (the window-transient baselines). */
    std::uint64_t lastFlitsEjected_;
    double lastLatencySum_;
    std::uint64_t lastLatencyCount_;
    std::uint64_t windows_ = 0;
    /** Sum of per-window mean utilizations (for the overall mean). */
    double utilMeanSum_ = 0.0;
    bool finished_ = false;
};

} // namespace fbfly

#endif // FBFLY_OBS_OBS_SAMPLER_H
