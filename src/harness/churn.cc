#include "harness/churn.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "routing/switchable.h"
#include "traffic/injection.h"
#include "traffic/traffic_pattern.h"

namespace fbfly
{

namespace
{

/** Offered load of the diurnal triangle ramp at cycle @p t. */
double
shapedLoad(const ChurnRunConfig &cfg, Cycle t)
{
    double load = cfg.baseLoad;
    if (cfg.diurnalPeriod > 1 && cfg.peakLoad > cfg.baseLoad) {
        // Integer-phase triangle wave 0 -> 1 -> 0 (no libm trig, so
        // the shape is bit-identical across platforms).
        const Cycle period = cfg.diurnalPeriod;
        const Cycle ph = t % period;
        const Cycle half = period / 2;
        const double frac =
            ph < half
                ? static_cast<double>(ph) / static_cast<double>(half)
                : static_cast<double>(period - ph) /
                      static_cast<double>(period - half);
        load += (cfg.peakLoad - cfg.baseLoad) * frac;
    }
    return load;
}

/** Shortest round-trip decimal form of @p x; NaN/inf as "null". */
std::string
jsonDouble(double x)
{
    if (!std::isfinite(x))
        return "null";
    char buf[40];
    for (int prec = 15; prec <= 17; ++prec) {
        std::snprintf(buf, sizeof buf, "%.*g", prec, x);
        if (std::strtod(buf, nullptr) == x)
            break;
    }
    return buf;
}

} // namespace

ChurnPointResult
runChurnPoint(const FlattenedButterfly &topo,
              const TrafficPattern &pattern, const ChurnModel *churn,
              NetworkConfig netcfg, const ChurnRunConfig &cfg)
{
    ChurnPointResult res;

    // Mixed-policy VC sharing and escape routing void the analytic
    // deadlock guarantees, so churn runs are always watchdog-backed.
    if (netcfg.watchdogCycles == 0) {
        res.load.status = LoadPointStatus::kInvalidConfig;
        res.load.diagnostics =
            "churn runs need the forward-progress watchdog: set "
            "NetworkConfig::watchdogCycles > 0";
        return res;
    }

    SwitchableRouting algo(topo);
    netcfg.churn = churn;

    // The epoch adaptor reads channel-utilization telemetry, so
    // metrics are force-enabled while adapting, with the sampling
    // window locked to the epoch length (one fresh window per epoch
    // boundary).
    const bool adapting = cfg.epochCycles > 0;
    ExperimentConfig expcfg = cfg.expcfg;
    if (adapting) {
        expcfg.obs.metricsEnabled = true;
        expcfg.obs.metricsWindowCycles = cfg.epochCycles;
    }

    BernoulliInjection inj(shapedLoad(cfg, 0), netcfg.packetSize,
                           expcfg.seed ^ kInjectionSeedSalt);

    // Trailing-window delivered-flit tracking for recovery SLOs.
    const std::size_t window = static_cast<std::size_t>(
        std::max<Cycle>(cfg.recoveryWindow, 1));
    std::vector<std::uint64_t> ejRing(window, 0);
    std::size_t ringPos = 0;
    std::uint64_t windowEjected = 0;
    std::uint64_t lastEjected = 0;

    struct PendingRecovery
    {
        Cycle at;
        double target; // recoveryFraction * pre-event window flits
    };
    std::vector<PendingRecovery> pending;
    ChurnStats &cs = res.churn;

    const std::vector<ServiceEvent> noEvents;
    const std::vector<ServiceEvent> &events =
        churn != nullptr ? churn->events() : noEvents;
    std::size_t evIdx = 0;

    const Cycle warmup = static_cast<Cycle>(expcfg.warmupCycles);
    const Cycle horizon = static_cast<Cycle>(expcfg.measureCycles);
    const Cycle horizonEnd = warmup + horizon;

    // Time-average offered load over the horizon (load shape + job
    // batches), for the record's `offered` field.
    double offeredSum = 0.0;

    LoadPointHooks hooks;
    // Shaped injection and job batches; down events firing this cycle
    // capture the pre-event trailing throughput as the recovery
    // target.
    hooks.inject = [&](Network &net, bool measuring) {
        const Cycle t = net.now();
        while (evIdx < events.size() && events[evIdx].at <= t) {
            const ServiceEvent &ev = events[evIdx++];
            if (ev.isDown() && t >= warmup && t < horizonEnd) {
                ++cs.recoveryEvents;
                pending.push_back(
                    {t, cfg.recoveryFraction *
                            static_cast<double>(windowEjected)});
            }
        }

        const double load = shapedLoad(cfg, t);
        if (measuring)
            offeredSum += load;
        inj.setOfferedLoad(load);
        inj.tick(net, measuring);
        if (cfg.jobPeriod > 0 && cfg.jobPacketsPerNode > 0 &&
            t > 0 && t % cfg.jobPeriod == 0)
            loadBatch(net, cfg.jobPacketsPerNode, measuring);
    };
    // Recovery tracking and epoch-boundary routing adaptation.
    hooks.afterStep = [&](Network &net,
                          const MetricsRegistry *metrics) {
        // Advance the trailing delivered-flit window.
        const std::uint64_t ej = net.stats().flitsEjected;
        windowEjected -= ejRing[ringPos];
        ejRing[ringPos] = ej - lastEjected;
        windowEjected += ejRing[ringPos];
        ringPos = ringPos + 1 == window ? 0 : ringPos + 1;
        lastEjected = ej;

        // Recovery: throughput restored to the pre-event target.
        for (std::size_t i = 0; i < pending.size();) {
            if (static_cast<double>(windowEjected) >=
                pending[i].target) {
                cs.recoveryCycles.push_back(static_cast<double>(
                    net.now() - pending[i].at));
                ++cs.recoveredEvents;
                pending[i] = pending.back();
                pending.pop_back();
            } else {
                ++i;
            }
        }

        // Epoch boundary: re-select the routing policy from the
        // channel-utilization telemetry of the window just closed.
        if (adapting && net.now() % cfg.epochCycles == 0) {
            ++cs.epochs;
            const MetricsRegistry::Series *mean =
                metrics->findSeries("obs.channel_util.mean");
            const MetricsRegistry::Series *mx =
                metrics->findSeries("obs.channel_util.max");
            if (mean != nullptr && !mean->values.empty() &&
                mx != nullptr && !mx->values.empty()) {
                const double m = mean->values.back();
                const double M = mx->values.back();
                const double imb = M / std::max(m, 1e-9);
                RouteAlgoId want = RouteAlgoId::kMinAdaptive;
                if (imb >= cfg.imbalanceVal &&
                    m <= cfg.valMeanUtilMax)
                    want = RouteAlgoId::kValiant;
                else if (imb >= cfg.imbalanceUgal)
                    want = RouteAlgoId::kUgal;
                algo.select(want);
            }
        }
    };
    // The churn extension of the result and its metrics.
    hooks.finish = [&](const Network &net, MetricsRegistry *m) {
        const NetworkStats &st = net.stats();
        if (st.latencyHist.count() > 0) {
            cs.p999Latency = static_cast<double>(
                st.latencyHist.percentile(0.999));
        }
        cs.downEvents = st.churnDownEvents;
        cs.repairEvents = st.churnRepairEvents;
        cs.flitsLost = st.churnFlitsLost;
        cs.packetsLost = st.churnPacketsLost;
        cs.measuredLost = st.churnMeasuredLost;
        cs.prunedEpisodes =
            churn != nullptr ? churn->prunedEpisodes() : 0;
        cs.routingSwitches = algo.switches();
        cs.pinnedMinAd =
            algo.packetsPinned(RouteAlgoId::kMinAdaptive);
        cs.pinnedUgal = algo.packetsPinned(RouteAlgoId::kUgal);
        cs.pinnedVal = algo.packetsPinned(RouteAlgoId::kValiant);
        if (!cs.recoveryCycles.empty()) {
            double sum = 0.0, mx = 0.0;
            for (const double v : cs.recoveryCycles) {
                sum += v;
                mx = std::max(mx, v);
            }
            cs.meanRecoveryCycles =
                sum / static_cast<double>(cs.recoveryCycles.size());
            cs.maxRecoveryCycles = mx;
        }
        if (m == nullptr)
            return;
        m->setCounter("churn.down_events", cs.downEvents);
        m->setCounter("churn.repair_events", cs.repairEvents);
        m->setCounter("churn.flits_lost", cs.flitsLost);
        m->setCounter("churn.packets_lost", cs.packetsLost);
        m->setCounter("churn.measured_lost", cs.measuredLost);
        m->setCounter("route.switches", cs.routingSwitches);
        m->setCounter("route.pinned_min_ad", cs.pinnedMinAd);
        m->setCounter("route.pinned_ugal", cs.pinnedUgal);
        m->setCounter("route.pinned_val", cs.pinnedVal);
        m->setCounter("recovery.events", cs.recoveryEvents);
        m->setCounter("recovery.recovered", cs.recoveredEvents);
        m->setGauge("recovery.mean_cycles", cs.meanRecoveryCycles);
        m->setGauge("recovery.max_cycles", cs.maxRecoveryCycles);
        m->setGauge("latency.p999", cs.p999Latency);
    };

    res.load =
        driveLoadPoint(topo, algo, pattern, netcfg, expcfg, hooks);
    // A run that never finished its schedule reports no offered load.
    if (res.load.status == LoadPointStatus::kStalled ||
        res.load.status == LoadPointStatus::kInvalidConfig)
        return res;
    res.load.offered =
        horizon > 0
            ? offeredSum / static_cast<double>(horizon) +
                  (cfg.jobPeriod > 0
                       ? static_cast<double>(cfg.jobPacketsPerNode *
                                             netcfg.packetSize) /
                             static_cast<double>(cfg.jobPeriod)
                       : 0.0)
            : 0.0;
    return res;
}

std::string
churnExtraJson(const ChurnConfig &cc, const ChurnStats &cs)
{
    std::ostringstream os;
    os << "\"churn\": {";
    os << "\"link_mtbf\": " << jsonDouble(cc.linkMtbf)
       << ", \"link_mttr\": " << jsonDouble(cc.linkMttr)
       << ", \"router_mtbf\": " << jsonDouble(cc.routerMtbf)
       << ", \"router_mttr\": " << jsonDouble(cc.routerMttr)
       << ", \"horizon\": " << cc.horizon
       << ", \"down_events\": " << cs.downEvents
       << ", \"repair_events\": " << cs.repairEvents
       << ", \"pruned_episodes\": " << cs.prunedEpisodes
       << ", \"flits_lost\": " << cs.flitsLost
       << ", \"packets_lost\": " << cs.packetsLost
       << ", \"measured_lost\": " << cs.measuredLost
       << ", \"epochs\": " << cs.epochs
       << ", \"routing_switches\": " << cs.routingSwitches
       << ", \"pinned_min_ad\": " << cs.pinnedMinAd
       << ", \"pinned_ugal\": " << cs.pinnedUgal
       << ", \"pinned_val\": " << cs.pinnedVal
       << ", \"p999_latency\": " << jsonDouble(cs.p999Latency);
    os << ", \"recovery\": {\"events\": " << cs.recoveryEvents
       << ", \"recovered\": " << cs.recoveredEvents
       << ", \"mean_cycles\": " << jsonDouble(cs.meanRecoveryCycles)
       << ", \"max_cycles\": " << jsonDouble(cs.maxRecoveryCycles)
       << ", \"samples\": [";
    for (std::size_t i = 0; i < cs.recoveryCycles.size(); ++i) {
        if (i > 0)
            os << ", ";
        os << jsonDouble(cs.recoveryCycles[i]);
    }
    os << "]}}";
    return os.str();
}

std::vector<SweepPointRecord>
runChurnSweep(const FlattenedButterfly &topo,
              const TrafficPattern &pattern,
              const NetworkConfig &netcfg, const ChurnSweepConfig &cfg)
{
    std::vector<SweepPointRecord> records(cfg.cases.size());
    ThreadPool pool(cfg.threads);
    for (std::size_t i = 0; i < cfg.cases.size(); ++i) {
        pool.submit([&, i] {
            SweepPointRecord &rec = records[i];
            const std::uint64_t pseed =
                derivePointSeed(cfg.masterSeed, i);

            ChurnRunConfig rc = cfg.run;
            rc.expcfg.seed = pseed;

            // The churn schedule runs on absolute cycles; cover the
            // warm-up and the measured horizon (repairs for any
            // still-open episode land during the drain).
            ChurnConfig cc = cfg.cases[i].churn;
            cc.horizon = static_cast<Cycle>(rc.expcfg.warmupCycles) +
                         static_cast<Cycle>(rc.expcfg.measureCycles);
            cc.seed = pseed ^ 0x436875726e4d646cULL; // "ChurnMdl"
            const ChurnModel model(topo, cc);

            const auto t0 = std::chrono::steady_clock::now();
            const ChurnPointResult r =
                runChurnPoint(topo, pattern, &model, netcfg, rc);
            const std::chrono::duration<double> dt =
                std::chrono::steady_clock::now() - t0;

            rec.index = i;
            rec.kind = SweepPointKind::kChurn;
            rec.series = cfg.cases[i].label;
            rec.topology = topo.name();
            rec.routing = "SWITCHABLE";
            rec.traffic = pattern.name();
            rec.seed = pseed;
            rec.wallSeconds = dt.count();
            rec.load = r.load;
            rec.extraJson = churnExtraJson(cc, r.churn);
        });
    }
    pool.wait();
    return records;
}

} // namespace fbfly
