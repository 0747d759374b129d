#include "obs/metrics.h"

#include <cmath>
#include <limits>

#include "common/json.h"

namespace fbfly
{

void
MetricsRegistry::setCounter(const std::string &name,
                            std::uint64_t value)
{
    const auto it = counterIndex_.find(name);
    if (it != counterIndex_.end()) {
        counters_[it->second].second = value;
        return;
    }
    counterIndex_.emplace(name, counters_.size());
    counters_.emplace_back(name, value);
}

void
MetricsRegistry::addCounter(const std::string &name,
                            std::uint64_t delta)
{
    const auto it = counterIndex_.find(name);
    if (it != counterIndex_.end()) {
        counters_[it->second].second += delta;
        return;
    }
    counterIndex_.emplace(name, counters_.size());
    counters_.emplace_back(name, delta);
}

void
MetricsRegistry::setGauge(const std::string &name, double value)
{
    const auto it = gaugeIndex_.find(name);
    if (it != gaugeIndex_.end()) {
        gauges_[it->second].second = value;
        return;
    }
    gaugeIndex_.emplace(name, gauges_.size());
    gauges_.emplace_back(name, value);
}

MetricsRegistry::Series &
MetricsRegistry::series(const std::string &name,
                        std::uint64_t window_cycles,
                        std::uint64_t start_cycle)
{
    const auto it = seriesIndex_.find(name);
    if (it != seriesIndex_.end())
        return series_[it->second].second;
    seriesIndex_.emplace(name, series_.size());
    series_.emplace_back(name, Series{window_cycles, start_cycle, {}});
    return series_.back().second;
}

std::uint64_t
MetricsRegistry::counter(const std::string &name) const
{
    const auto it = counterIndex_.find(name);
    return it != counterIndex_.end() ? counters_[it->second].second
                                     : 0;
}

bool
MetricsRegistry::hasCounter(const std::string &name) const
{
    return counterIndex_.find(name) != counterIndex_.end();
}

double
MetricsRegistry::gauge(const std::string &name) const
{
    const auto it = gaugeIndex_.find(name);
    return it != gaugeIndex_.end()
               ? gauges_[it->second].second
               : std::numeric_limits<double>::quiet_NaN();
}

const MetricsRegistry::Series *
MetricsRegistry::findSeries(const std::string &name) const
{
    const auto it = seriesIndex_.find(name);
    return it != seriesIndex_.end() ? &series_[it->second].second
                                    : nullptr;
}

bool
MetricsRegistry::operator==(const MetricsRegistry &o) const
{
    // Exact comparison, including NaN gauges: compare bit patterns
    // via the round-trip rule (NaN == NaN here, unlike IEEE) so a
    // "both unobserved" pair does not spuriously differ.
    if (counters_ != o.counters_ || series_ != o.series_)
        return false;
    if (gauges_.size() != o.gauges_.size())
        return false;
    for (std::size_t i = 0; i < gauges_.size(); ++i) {
        if (gauges_[i].first != o.gauges_[i].first)
            return false;
        const double a = gauges_[i].second;
        const double b = o.gauges_[i].second;
        if (std::isnan(a) && std::isnan(b))
            continue;
        if (a != b)
            return false;
    }
    return true;
}

void
MetricsRegistry::writeJson(std::ostream &os) const
{
    os << "{\"counters\": {";
    for (std::size_t i = 0; i < counters_.size(); ++i) {
        if (i > 0)
            os << ", ";
        jsonAppendString(os, counters_[i].first);
        os << ": " << counters_[i].second;
    }
    os << "}, \"gauges\": {";
    for (std::size_t i = 0; i < gauges_.size(); ++i) {
        if (i > 0)
            os << ", ";
        jsonAppendString(os, gauges_[i].first);
        os << ": ";
        jsonAppendNumber(os, gauges_[i].second);
    }
    os << "}, \"series\": {";
    for (std::size_t i = 0; i < series_.size(); ++i) {
        if (i > 0)
            os << ", ";
        jsonAppendString(os, series_[i].first);
        const Series &s = series_[i].second;
        os << ": {\"window_cycles\": " << s.windowCycles
           << ", \"start_cycle\": " << s.startCycle
           << ", \"values\": [";
        for (std::size_t j = 0; j < s.values.size(); ++j) {
            if (j > 0)
                os << ", ";
            jsonAppendNumber(os, s.values[j]);
        }
        os << "]}";
    }
    os << "}}";
}

} // namespace fbfly
