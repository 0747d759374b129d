#include "harness/experiment.h"

#include <optional>

#include "common/log.h"
#include "obs/obs_sampler.h"
#include "routing/routing.h"
#include "sim/stats.h"
#include "topology/topology.h"
#include "traffic/injection.h"
#include "traffic/traffic_pattern.h"

namespace fbfly
{

const char *
toString(LoadPointStatus s)
{
    switch (s) {
    case LoadPointStatus::kDelivered:
        return "delivered";
    case LoadPointStatus::kSaturated:
        return "saturated";
    case LoadPointStatus::kUnreachable:
        return "unreachable";
    case LoadPointStatus::kStalled:
        return "stalled";
    case LoadPointStatus::kInvalidConfig:
        return "invalid-config";
    case LoadPointStatus::kDeadlockRecovered:
        return "deadlock-recovered";
    }
    return "?";
}

LoadPointResult
driveLoadPoint(const Topology &topo, RoutingAlgorithm &algo,
               const TrafficPattern &pattern, NetworkConfig netcfg,
               const ExperimentConfig &expcfg,
               const LoadPointHooks &hooks)
{
    netcfg.numVcs = algo.numVcs();
    netcfg.seed = expcfg.seed;

    LoadPointResult res;

    // Pre-flight: refuse to run configurations that would corrupt or
    // hang the simulation.
    const ValidationReport rep = Network::validate(topo, algo, netcfg);
    if (!rep.ok()) {
        res.status = LoadPointStatus::kInvalidConfig;
        res.diagnostics = rep.summary();
        return res;
    }

    // The oracle outlives the network (the network holds a pointer).
    DeliveryOracle oracle;
    if (expcfg.verifyDelivery)
        netcfg.oracle = &oracle;

    // Per-run observability state (docs/OBSERVABILITY.md): the sink
    // and registry belong to this run alone, so sweep results are
    // identical for any thread count.
    std::shared_ptr<TraceSink> sink;
    if (expcfg.obs.traceEnabled) {
        sink = std::make_shared<TraceSink>(expcfg.obs.traceCapacity);
        sink->setLevel(expcfg.obs.traceLevel);
        netcfg.trace = sink.get();
    }

    Network net(topo, algo, &pattern, netcfg);

    std::shared_ptr<MetricsRegistry> metrics;
    std::optional<ObsSampler> sampler;
    if (expcfg.obs.metricsEnabled) {
        metrics = std::make_shared<MetricsRegistry>();
        sampler.emplace(net, *metrics,
                        expcfg.obs.metricsWindowCycles);
    }

    // Liveness bookkeeping: every diagnosis made and every recovery
    // applied during this run (sim/liveness.h).
    std::vector<StallDiagnosis> diags;
    std::vector<RecoveryReport> recs;

    // Copy the counters and whatever statistics are backed by real
    // observations into res; fields with no observation keep their
    // NaN default (LoadPointResult's validity convention).
    const auto fillObserved = [&](bool drained) {
        const NetworkStats &st = net.stats();
        res.measuredPackets = st.measuredEjected;
        res.measuredDropped = st.measuredDropped;
        res.flitsDropped = st.flitsDropped;
        res.link = net.linkStats();
        if (res.link.attempts > 0) {
            res.retransmitRate =
                static_cast<double>(res.link.retransmits) /
                static_cast<double>(res.link.attempts);
        }
        if (expcfg.verifyDelivery) {
            res.delivery =
                oracle.report(st.measuredDropped, drained,
                              algo.preservesFlowOrder());
            res.deliveryChecked = true;
            if (!res.delivery.clean()) {
                FBFLY_WARN("end-to-end delivery violation: ",
                           res.delivery.summary());
            }
        }
        if (st.measuredEjected > 0) {
            res.avgLatency = st.packetLatency.mean();
            res.avgNetworkLatency = st.networkLatency.mean();
            res.avgHops = st.hops.mean();
        }
        if (st.latencyHist.count() > 0) {
            res.p99Latency = static_cast<double>(
                st.latencyHist.percentile(0.99));
        }

        // Observability: close the sampling window and publish the
        // registry.  Counters first, then gauges — insertion order is
        // the JSON order and the determinism-comparison order.
        if (sampler.has_value())
            sampler->finish();
        if (metrics != nullptr) {
            MetricsRegistry &m = *metrics;
            m.setCounter("net.flits_injected", st.flitsInjected);
            m.setCounter("net.flits_ejected", st.flitsEjected);
            m.setCounter("net.hops_ejected", st.hopsEjected);
            m.setCounter("net.packets_ejected", st.packetsEjected);
            m.setCounter("net.measured_created", st.measuredCreated);
            m.setCounter("net.measured_ejected", st.measuredEjected);
            m.setCounter("net.flits_dropped", st.flitsDropped);
            m.setCounter("link.attempts", res.link.attempts);
            m.setCounter("link.retransmits", res.link.retransmits);
            m.setCounter("link.crc_rejected", res.link.crcRejected);
            m.setCounter("link.nacks_sent", res.link.nacksSent);
            m.setCounter("link.timeouts", res.link.timeouts);
            if (sink != nullptr) {
                m.setCounter("trace.recorded", sink->recorded());
                m.setCounter("trace.dropped",
                             sink->droppedRecords());
                for (int t = 0; t < kNumTraceEventTypes; ++t) {
                    const auto type = static_cast<TraceEventType>(t);
                    m.setCounter(std::string("trace.") +
                                     toString(type),
                                 sink->count(type));
                }
            }
            const DistSummary lat =
                summarize(st.packetLatency, st.latencyHist);
            m.setCounter("latency.count", lat.count);
            m.setGauge("latency.mean", lat.mean);
            m.setGauge("latency.stddev", lat.stddev);
            m.setGauge("latency.min", lat.min);
            m.setGauge("latency.max", lat.max);
            m.setGauge("latency.p50", lat.p50);
            m.setGauge("latency.p99", lat.p99);
            m.setGauge("network_latency.mean",
                       st.measuredEjected > 0
                           ? st.networkLatency.mean()
                           : LoadPointResult::kUnknown);
            m.setGauge("hops.mean", st.measuredEjected > 0
                                        ? st.hops.mean()
                                        : LoadPointResult::kUnknown);
        }
        if (hooks.finish)
            hooks.finish(net, metrics.get());
        res.recoveries = static_cast<int>(recs.size());
        if (!diags.empty())
            res.liveness =
                livenessJson(expcfg.liveness, diags, recs);
        res.trace = sink;
        res.metrics = metrics;
    };

    // Accepted throughput over the measurement window.
    const auto acceptedRate = [&](std::uint64_t ej0, std::uint64_t ej1) {
        return static_cast<double>(ej1 - ej0) /
               (static_cast<double>(net.numNodes()) *
                expcfg.measureCycles);
    };

    // measure_complete: the measurement window closed, so accepted
    // throughput is known even though the run then wedged.
    const auto stalledOut = [&](bool measure_complete,
                                std::uint64_t ej0, std::uint64_t ej1) {
        res.status = LoadPointStatus::kStalled;
        res.diagnostics = net.stallDump();
        if (!diags.empty())
            res.diagnostics += "\n" + diags.back().summary();
        res.saturated = true; // no labeled packet will ever leave
        fillObserved(false);
        if (measure_complete)
            res.accepted = acceptedRate(ej0, ej1);
        return res;
    };

    // Stall handling after each step.  Returns kContinue when nothing
    // is wrong (or a recovery unblocked the network) and kAbort when
    // the run must end as kStalled.
    enum class LivenessOutcome
    {
        kContinue,
        kAbort,
    };
    const auto livenessTick = [&]() -> LivenessOutcome {
        const LivenessConfig &lcfg = expcfg.liveness;
        const bool fired = net.stalled();
        // Optional early sampling: diagnose before the watchdog
        // horizon, but only *act* on a definite cyclic deadlock (a
        // slow network is not a stalled one).
        bool sampled = false;
        if (!fired) {
            if (lcfg.samplePeriod == 0 || net.quiescent())
                return LivenessOutcome::kContinue;
            const Cycle idle = net.now() - net.lastProgressCycle();
            if (idle == 0 || idle % lcfg.samplePeriod != 0)
                return LivenessOutcome::kContinue;
            sampled = true;
        }
        StallDiagnosis diag = analyzeStall(net);
        if (sampled && diag.cls != StallClass::kDeadlock)
            return LivenessOutcome::kContinue;
        diags.push_back(std::move(diag));
        if (lcfg.policy == RecoveryPolicy::kAbort ||
            static_cast<int>(recs.size()) >= lcfg.maxRecoveries)
            return LivenessOutcome::kAbort;
        const RecoveryReport rep =
            applyRecovery(net, diags.back(), lcfg.policy);
        recs.push_back(rep);
        // A kernel-bug recovery "acts" by re-waking everything in
        // restartAfterRecovery(); anything else that neither killed
        // a victim nor re-decided a route cannot have unblocked the
        // network, so give up rather than spin until maxRecoveries.
        if (!rep.acted() &&
            diags.back().cls != StallClass::kKernelBug)
            return LivenessOutcome::kAbort;
        return LivenessOutcome::kContinue;
    };

    // One simulated cycle: inject, step, sample, observe, then the
    // liveness tick.
    const auto cycle = [&](bool measuring) {
        hooks.inject(net, measuring);
        net.step();
        if (sampler.has_value())
            sampler->tick();
        if (hooks.afterStep)
            hooks.afterStep(net, metrics.get());
        return livenessTick();
    };

    // Warm up under load without labeling.
    for (int c = 0; c < expcfg.warmupCycles; ++c)
        if (cycle(false) == LivenessOutcome::kAbort)
            return stalledOut(false, 0, 0);

    // Label packets created during the measurement interval, and
    // count all ejected flits in the window for accepted throughput.
    const std::uint64_t ejected0 = net.stats().flitsEjected;
    for (int c = 0; c < expcfg.measureCycles; ++c)
        if (cycle(true) == LivenessOutcome::kAbort)
            return stalledOut(false, 0, 0);
    const std::uint64_t ejected1 = net.stats().flitsEjected;

    // Run until every labeled packet has left the system (delivered
    // or dropped as unreachable), continuing to inject background
    // traffic so the network state persists.
    bool saturated = false;
    for (int drained = 0;
         net.stats().measuredEjected + net.stats().measuredDropped <
         net.stats().measuredCreated;
         ++drained) {
        if (drained >= expcfg.drainCycles) {
            saturated = true;
            break;
        }
        if (cycle(false) == LivenessOutcome::kAbort)
            return stalledOut(true, ejected0, ejected1);
    }

    fillObserved(!saturated);
    res.accepted = acceptedRate(ejected0, ejected1);
    res.saturated = saturated;
    if (saturated)
        res.status = LoadPointStatus::kSaturated;
    else if (!recs.empty())
        // Recovery unblocked the run and it completed; this takes
        // precedence over kUnreachable, which the killed victims'
        // measuredDropped would otherwise trigger.
        res.status = LoadPointStatus::kDeadlockRecovered;
    else if (net.stats().measuredDropped > 0)
        res.status = LoadPointStatus::kUnreachable;
    else
        res.status = LoadPointStatus::kDelivered;
    return res;
}

LoadPointResult
runLoadPoint(const Topology &topo, RoutingAlgorithm &algo,
             const TrafficPattern &pattern, NetworkConfig netcfg,
             const ExperimentConfig &expcfg, double offered)
{
    BernoulliInjection inj(offered, netcfg.packetSize,
                           expcfg.seed ^ kInjectionSeedSalt);
    LoadPointHooks hooks;
    hooks.inject = [&inj](Network &net, bool measuring) {
        inj.tick(net, measuring);
    };
    LoadPointResult res =
        driveLoadPoint(topo, algo, pattern, netcfg, expcfg, hooks);
    res.offered = offered;
    return res;
}

std::vector<LoadPointResult>
runLoadSweep(const Topology &topo, RoutingAlgorithm &algo,
             const TrafficPattern &pattern, NetworkConfig netcfg,
             const ExperimentConfig &expcfg,
             const std::vector<double> &loads)
{
    std::vector<LoadPointResult> out;
    out.reserve(loads.size());
    for (const double load : loads) {
        out.push_back(runLoadPoint(topo, algo, pattern, netcfg,
                                   expcfg, load));
    }
    return out;
}

double
measureSaturationThroughput(const Topology &topo,
                            RoutingAlgorithm &algo,
                            const TrafficPattern &pattern,
                            NetworkConfig netcfg,
                            const ExperimentConfig &expcfg)
{
    return runLoadPoint(topo, algo, pattern, netcfg, expcfg, 1.0)
        .accepted;
}

BatchResult
runBatch(const Topology &topo, RoutingAlgorithm &algo,
         const TrafficPattern &pattern, NetworkConfig netcfg,
         std::uint64_t seed, int batch_size, Cycle max_cycles)
{
    netcfg.numVcs = algo.numVcs();
    netcfg.seed = seed;
    Network net(topo, algo, &pattern, netcfg);

    loadBatch(net, batch_size, true);
    while (!net.quiescent()) {
        FBFLY_ASSERT(net.now() < max_cycles,
                     "batch run exceeded ", max_cycles,
                     " cycles (livelock or saturation bug?)");
        net.step();
    }

    BatchResult res;
    res.batchSize = batch_size;
    res.completionTime = net.now();
    res.normalizedLatency =
        static_cast<double>(net.now()) / batch_size;
    return res;
}

} // namespace fbfly
