#include "obs/obs_sampler.h"

#include <algorithm>
#include <string>

#include "common/log.h"
#include "network/network.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace fbfly
{

ObsSampler::ObsSampler(Network &net, MetricsRegistry &registry,
                       std::uint64_t window_cycles)
    : net_(net),
      registry_(registry),
      windowCycles_(window_cycles),
      startCycle_(net.now()),
      lastBoundary_(net.now()),
      lastCounts_(net.interRouterFlitCounts()),
      baseCounts_(lastCounts_),
      lastFlitsEjected_(net.stats().flitsEjected),
      lastLatencySum_(net.stats().packetLatency.sum()),
      lastLatencyCount_(net.stats().packetLatency.count())
{
    FBFLY_ASSERT(window_cycles >= 1,
                 "sampler window must be >= 1 cycle");
}

void
ObsSampler::tick()
{
    if (finished_)
        return;
    const Cycle now = net_.now();
    if (now - lastBoundary_ < windowCycles_)
        return;
    emitWindow(windowCycles_);
    lastBoundary_ = now;
}

void
ObsSampler::finish()
{
    if (finished_)
        return;
    const Cycle now = net_.now();
    if (now > lastBoundary_) {
        emitWindow(now - lastBoundary_);
        lastBoundary_ = now;
    }
    registry_.setGauge("obs.windows",
                       static_cast<double>(windows_));
    registry_.setGauge("obs.channel_util.overall_mean",
                       windows_ > 0
                           ? utilMeanSum_ /
                                 static_cast<double>(windows_)
                           : 0.0);
    registry_.setCounter("obs.channel_flits_integrated",
                         integratedChannelFlits());
    finished_ = true;
}

std::uint64_t
ObsSampler::integratedChannelFlits() const
{
    const std::vector<std::uint64_t> counts =
        net_.interRouterFlitCounts();
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < counts.size(); ++i)
        total += counts[i] - baseCounts_[i];
    return total;
}

void
ObsSampler::emitWindow(std::uint64_t cycles)
{
    const Cycle now = net_.now();
    const std::vector<std::uint64_t> counts =
        net_.interRouterFlitCounts();
    TraceSink *sink = net_.traceSink();

    // Per-channel utilization: flits carried this window / cycles.
    double sum = 0.0;
    double max = 0.0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
        const std::uint64_t delta = counts[i] - lastCounts_[i];
        const double util = static_cast<double>(delta) /
                            static_cast<double>(cycles);
        sum += util;
        max = std::max(max, util);
        if (sink != nullptr) {
            const std::int32_t track = net_.arcTrack(i);
            if (track >= 0)
                sink->counter(track, now, util);
        }
    }
    const double mean =
        counts.empty() ? 0.0
                       : sum / static_cast<double>(counts.size());
    utilMeanSum_ += mean;

    registry_.series("obs.channel_util.mean", windowCycles_,
                     startCycle_)
        .values.push_back(mean);
    registry_.series("obs.channel_util.max", windowCycles_,
                     startCycle_)
        .values.push_back(max);

    // Per-VC buffer occupancy (instantaneous, network-wide).
    const int num_vcs = net_.numVcs();
    for (VcId vc = 0; vc < num_vcs; ++vc) {
        registry_
            .series("obs.vc_occ.vc" + std::to_string(vc),
                    windowCycles_, startCycle_)
            .values.push_back(
                static_cast<double>(net_.bufferedFlitsOnVc(vc)));
    }

    // The window's transient: accepted throughput, mean latency of
    // the labeled packets ejected in it, source-queue backlog.
    const NetworkStats &st = net_.stats();
    registry_.series("obs.accepted", windowCycles_, startCycle_)
        .values.push_back(
            static_cast<double>(st.flitsEjected - lastFlitsEjected_) /
            (static_cast<double>(net_.numNodes()) *
             static_cast<double>(cycles)));
    const std::uint64_t lat_n =
        st.packetLatency.count() - lastLatencyCount_;
    const double lat_sum = st.packetLatency.sum() - lastLatencySum_;
    registry_.series("obs.window_latency", windowCycles_, startCycle_)
        .values.push_back(
            lat_n > 0 ? lat_sum / static_cast<double>(lat_n) : 0.0);
    registry_.series("obs.backlog", windowCycles_, startCycle_)
        .values.push_back(static_cast<double>(st.pendingPackets));
    lastFlitsEjected_ = st.flitsEjected;
    lastLatencySum_ = st.packetLatency.sum();
    lastLatencyCount_ = st.packetLatency.count();

    lastCounts_ = counts;
    ++windows_;
}

} // namespace fbfly
