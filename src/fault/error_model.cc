#include "fault/error_model.h"

#include <sstream>

#include "common/json.h"
#include "common/log.h"

namespace fbfly
{

ErrorModel::ErrorModel(const Topology &topo,
                       const ErrorModelConfig &cfg)
    : topo_(topo), cfg_(cfg),
      corrupt_(topo.arcs().size(), cfg.corruptRate),
      erase_(topo.arcs().size(), cfg.eraseRate)
{
}

void
ErrorModel::setUniformRates(double corrupt, double erase)
{
    cfg_.corruptRate = corrupt;
    cfg_.eraseRate = erase;
    corrupt_.assign(corrupt_.size(), corrupt);
    erase_.assign(erase_.size(), erase);
}

void
ErrorModel::setArcRates(std::size_t arc_index, double corrupt,
                        double erase)
{
    FBFLY_ASSERT(arc_index < corrupt_.size(),
                 "setArcRates arc index ", arc_index, " out of range");
    corrupt_[arc_index] = corrupt;
    erase_[arc_index] = erase;
}

LinkErrorRates
ErrorModel::arcRates(std::size_t arc_index) const
{
    FBFLY_ASSERT(arc_index < corrupt_.size(),
                 "arcRates arc index ", arc_index, " out of range");
    LinkErrorRates r;
    r.corrupt = corrupt_[arc_index];
    r.erase = erase_[arc_index];
    r.burstStart = cfg_.burstStart;
    r.burstStop = cfg_.burstStop;
    r.burstFactor = cfg_.burstFactor;
    return r;
}

Rng
ErrorModel::arcRng(std::size_t arc_index) const
{
    // Channel-private stream: depends only on (model seed, arc
    // index), never on event order, so results are reproducible at
    // any sweep-engine thread count.
    Rng base(cfg_.seed ^ 0x4c696e6b45727273ULL); // "LinkErrs"
    return base.split(arc_index);
}

bool
ErrorModel::anyErrors() const
{
    for (std::size_t i = 0; i < corrupt_.size(); ++i) {
        if (corrupt_[i] > 0.0 || erase_[i] > 0.0)
            return true;
    }
    return false;
}

std::string
ErrorModel::validateRates() const
{
    std::ostringstream os;
    auto prob = [&os](const char *name, double p) {
        if (!(p >= 0.0 && p <= 1.0))
            os << name << " must be in [0, 1] (got " << p << ")\n";
    };
    prob("burstStart", cfg_.burstStart);
    prob("burstStop", cfg_.burstStop);
    if (cfg_.burstFactor < 1.0)
        os << "burstFactor must be >= 1 (got " << cfg_.burstFactor
           << ")\n";
    if (cfg_.burstStart > 0.0 && cfg_.burstStop <= 0.0)
        os << "burstStop must be > 0 when bursts can start "
              "(the bad state would be absorbing)\n";
    for (std::size_t i = 0; i < corrupt_.size(); ++i) {
        const double c = corrupt_[i];
        const double e = erase_[i];
        if (!(c >= 0.0 && c <= 1.0) || !(e >= 0.0 && e <= 1.0) ||
            c + e > 1.0) {
            os << "arc " << i << " rates out of range: corrupt=" << c
               << " erase=" << e << " (each in [0,1], sum <= 1)\n";
        }
    }
    return os.str();
}

std::vector<std::pair<std::string, std::string>>
ErrorModel::metadata() const
{
    std::vector<std::pair<std::string, std::string>> kv;
    kv.emplace_back("error_corrupt_rate",
                    jsonNumber(cfg_.corruptRate));
    kv.emplace_back("error_erase_rate", jsonNumber(cfg_.eraseRate));
    kv.emplace_back("error_burst_start",
                    jsonNumber(cfg_.burstStart));
    kv.emplace_back("error_burst_stop", jsonNumber(cfg_.burstStop));
    kv.emplace_back("error_burst_factor",
                    jsonNumber(cfg_.burstFactor));
    kv.emplace_back("error_seed", std::to_string(cfg_.seed));
    return kv;
}

} // namespace fbfly
