#include "harness/resilience.h"

#include <cstdio>
#include <memory>

#include "common/json.h"
#include "common/log.h"
#include "routing/routing.h"
#include "topology/topology.h"
#include "traffic/traffic_pattern.h"

namespace fbfly
{

std::vector<ResiliencePoint>
runResilienceSweep(const Topology &topo,
                   const std::vector<RoutingAlgorithm *> &algos,
                   const TrafficPattern &pattern,
                   const ResilienceConfig &cfg,
                   std::vector<SweepPointRecord> *records_out)
{
    FBFLY_ASSERT(cfg.eraseShare >= 0.0 && cfg.eraseShare <= 1.0,
                 "eraseShare must be in [0, 1]");

    // Phase 1 (serial, cheap): one error model per rate, shared by
    // every algorithm so they face identical error statistics.  The
    // models must outlive every queued run.
    std::vector<std::unique_ptr<ErrorModel>> models;
    models.reserve(cfg.errorRates.size());
    for (const double rate : cfg.errorRates) {
        ErrorModelConfig emc = cfg.errorBase;
        emc.corruptRate = rate * (1.0 - cfg.eraseShare);
        emc.eraseRate = rate * cfg.eraseShare;
        models.push_back(std::make_unique<ErrorModel>(topo, emc));
    }

    // Phase 2: queue every (rate, algorithm) cell on the engine.
    // Queue order (= seed-derivation order) is rate-major,
    // algorithm-minor, fixed-load before saturation.
    SweepConfig sweepcfg;
    sweepcfg.threads = cfg.threads;
    sweepcfg.masterSeed = cfg.exp.seed;
    SweepEngine engine(sweepcfg);

    std::vector<ResiliencePoint> out;
    struct CellIdx
    {
        std::size_t fixedLoad;
        std::size_t saturation; // unused when !measureSaturation
    };
    std::vector<CellIdx> cells;
    for (std::size_t e = 0; e < cfg.errorRates.size(); ++e) {
        const ErrorModel &em = *models[e];
        for (RoutingAlgorithm *algo : algos) {
            FBFLY_ASSERT(algo != nullptr,
                         "null algorithm in resilience sweep");
            NetworkConfig netcfg = cfg.net;
            netcfg.errors = &em;
            netcfg.linkRetry = cfg.retry;
            // Always run the protocol, also at zero rate: it is
            // timing-transparent there, and keeping it on makes the
            // zero-rate point the protocol-overhead control.
            netcfg.linkRetry.enabled = true;
            netcfg.watchdogCycles = cfg.watchdogCycles;

            ResiliencePoint pt;
            pt.errorRate = cfg.errorRates[e];
            pt.corruptRate = em.config().corruptRate;
            pt.eraseRate = em.config().eraseRate;
            pt.algorithm = algo->name();
            out.push_back(std::move(pt));

            char series[96];
            std::snprintf(series, sizeof series,
                          "resilience ber=%g %s", cfg.errorRates[e],
                          algo->name().c_str());
            CellIdx idx{};
            idx.fixedLoad = engine.addLoadPoint(
                std::string(series) + " fixed-load", topo, *algo,
                pattern, netcfg, cfg.exp, cfg.load);
            if (cfg.measureSaturation) {
                idx.saturation = engine.addLoadPoint(
                    std::string(series) + " saturation", topo, *algo,
                    pattern, netcfg, cfg.exp, 1.0);
            }
            cells.push_back(idx);
        }
    }

    const auto &records = engine.run();
    for (std::size_t i = 0; i < out.size(); ++i) {
        out[i].fixedLoad = records[cells[i].fixedLoad].load;
        if (cfg.measureSaturation)
            out[i].saturation = records[cells[i].saturation].load;
    }
    if (records_out != nullptr)
        *records_out = records;
    return out;
}

std::vector<std::pair<std::string, std::string>>
resilienceMetadata(const ResilienceConfig &cfg)
{
    std::vector<std::pair<std::string, std::string>> kv;
    std::string rates;
    for (const double r : cfg.errorRates) {
        if (!rates.empty())
            rates += ',';
        rates += jsonNumber(r);
    }
    kv.emplace_back("error_rates", rates);
    kv.emplace_back("erase_share", jsonNumber(cfg.eraseShare));
    kv.emplace_back("error_burst_start",
                    jsonNumber(cfg.errorBase.burstStart));
    kv.emplace_back("error_burst_stop",
                    jsonNumber(cfg.errorBase.burstStop));
    kv.emplace_back("error_burst_factor",
                    jsonNumber(cfg.errorBase.burstFactor));
    kv.emplace_back("error_seed",
                    std::to_string(cfg.errorBase.seed));
    kv.emplace_back("retry_window_flits",
                    std::to_string(cfg.retry.windowFlits));
    kv.emplace_back("retry_timeout",
                    std::to_string(cfg.retry.retryTimeout));
    kv.emplace_back("retry_max_timeout",
                    std::to_string(cfg.retry.maxTimeout));
    kv.emplace_back("fixed_load", jsonNumber(cfg.load));
    return kv;
}

} // namespace fbfly
