#include "harness/result_writer.h"

#include <fstream>
#include <sstream>

#include "common/json.h"
#include "common/log.h"

namespace fbfly
{

const char *
gitDescribe()
{
#ifdef FBFLY_GIT_DESCRIBE
    return FBFLY_GIT_DESCRIBE;
#else
    return "unknown";
#endif
}

namespace
{

const char *
kindName(SweepPointKind k)
{
    switch (k) {
    case SweepPointKind::kLoadPoint:
        return "load";
    case SweepPointKind::kBatch:
        return "batch";
    case SweepPointKind::kChurn:
        return "churn";
    }
    return "?";
}

void
writePoint(std::ostringstream &os, const SweepPointRecord &rec)
{
    os << "    {\"index\": " << rec.index << ", \"kind\": \""
       << kindName(rec.kind) << "\", \"series\": ";
    jsonAppendString(os, rec.series);
    os << ", \"topology\": ";
    jsonAppendString(os, rec.topology);
    os << ", \"routing\": ";
    jsonAppendString(os, rec.routing);
    os << ", \"traffic\": ";
    jsonAppendString(os, rec.traffic);
    os << ", \"seed\": " << rec.seed << ", \"wall_seconds\": ";
    jsonAppendNumber(os, rec.wallSeconds);
    if (rec.kind == SweepPointKind::kBatch) {
        os << ", \"batch_size\": " << rec.batchSize
           << ", \"completion_cycles\": " << rec.completionTime
           << ", \"normalized_latency\": ";
        jsonAppendNumber(os, normalizedLatency(rec.completionTime,
                                               rec.batchSize));
    }
    const LoadPointResult &r = rec.load;
    os << ", \"offered\": ";
    jsonAppendNumber(os, r.offered);
    os << ", \"accepted\": ";
    jsonAppendNumber(os, r.accepted);
    os << ", \"avg_latency\": ";
    jsonAppendNumber(os, r.avgLatency);
    os << ", \"avg_network_latency\": ";
    jsonAppendNumber(os, r.avgNetworkLatency);
    os << ", \"avg_hops\": ";
    jsonAppendNumber(os, r.avgHops);
    os << ", \"p99_latency\": ";
    jsonAppendNumber(os, r.p99Latency);
    os << ", \"status\": \"" << toString(r.status) << "\""
       << ", \"valid\": " << (r.valid() ? "true" : "false")
       << ", \"saturated\": " << (r.saturated ? "true" : "false")
       << ", \"measured_packets\": " << r.measuredPackets
       << ", \"measured_dropped\": " << r.measuredDropped
       << ", \"flits_dropped\": " << r.flitsDropped;
    // Link-layer reliability counters (all zero when the retry
    // protocol was off for this point).
    os << ", \"link_attempts\": " << r.link.attempts
       << ", \"link_retransmits\": " << r.link.retransmits
       << ", \"link_corrupt_injected\": " << r.link.corruptInjected
       << ", \"link_erase_injected\": " << r.link.eraseInjected
       << ", \"link_crc_rejected\": " << r.link.crcRejected
       << ", \"link_dup_suppressed\": " << r.link.dupSuppressed
       << ", \"link_nacks\": " << r.link.nacksSent
       << ", \"link_acks\": " << r.link.acksSent
       << ", \"link_timeouts\": " << r.link.timeouts
       << ", \"retransmit_rate\": ";
    jsonAppendNumber(os, r.retransmitRate);
    if (r.deliveryChecked) {
        const OracleReport &d = r.delivery;
        os << ", \"delivery\": {\"tracked\": " << d.tracked
           << ", \"delivered\": " << d.delivered
           << ", \"outstanding\": " << d.outstanding
           << ", \"expected_dropped\": " << d.expectedDropped
           << ", \"dropped\": " << d.dropped
           << ", \"duplicates\": " << d.duplicates
           << ", \"reorders\": " << d.reorders
           << ", \"order_enforced\": "
           << (d.orderEnforced ? "true" : "false")
           << ", \"corruptions\": " << d.corruptions
           << ", \"clean\": " << (d.clean() ? "true" : "false")
           << "}";
    }
    // Observability: the point's MetricsRegistry (counters, gauges,
    // utilization/occupancy series), present only when the point ran
    // with obs.metricsEnabled.
    if (r.metrics != nullptr && !r.metrics->empty()) {
        os << ", \"metrics\": ";
        r.metrics->writeJson(os);
    }
    // Liveness extension: present only when the run diagnosed at
    // least one stall (sim/liveness.h livenessJson()).
    if (!r.liveness.empty())
        os << ", " << r.liveness;
    // Kind-specific extension block (e.g. the churn object of a
    // dynamic-service point) — pre-serialized by the harness.
    if (!rec.extraJson.empty())
        os << ", " << rec.extraJson;
    os << "}";
}

} // namespace

std::string
sweepResultsToJson(const SweepRunMeta &meta,
                   const std::vector<SweepPointRecord> &records,
                   std::uint64_t master_seed, int threads,
                   double total_wall_seconds)
{
    double serial = 0.0;
    for (const auto &rec : records)
        serial += rec.wallSeconds;
    const double speedup =
        total_wall_seconds > 0.0 ? serial / total_wall_seconds : 0.0;

    std::ostringstream os;
    os << "{\n  \"schema\": \"" << kSweepJsonSchema << "\",\n";
    os << "  \"bench\": ";
    jsonAppendString(os, meta.bench);
    os << ",\n  \"git\": ";
    jsonAppendString(os, gitDescribe());
    os << ",\n  \"seed\": " << master_seed;
    os << ",\n  \"threads\": " << threads;
    os << ",\n  \"wall_seconds_total\": ";
    jsonAppendNumber(os, total_wall_seconds);
    os << ",\n  \"wall_seconds_points_sum\": ";
    jsonAppendNumber(os, serial);
    os << ",\n  \"parallel_speedup\": ";
    jsonAppendNumber(os, speedup);
    os << ",\n  \"trace_file\": ";
    if (meta.traceFile.empty())
        os << "null";
    else
        jsonAppendString(os, meta.traceFile);
    os << ",\n  \"metadata\": {";
    bool first = true;
    if (!meta.description.empty()) {
        os << "\"description\": ";
        jsonAppendString(os, meta.description);
        first = false;
    }
    for (const auto &[key, value] : meta.extra) {
        if (!first)
            os << ", ";
        jsonAppendString(os, key);
        os << ": ";
        jsonAppendString(os, value);
        first = false;
    }
    for (const auto &[key, value] : meta.extraNumbers) {
        if (!first)
            os << ", ";
        jsonAppendString(os, key);
        os << ": ";
        jsonAppendNumber(os, value);
        first = false;
    }
    os << "},\n  \"points\": [\n";
    for (std::size_t i = 0; i < records.size(); ++i) {
        writePoint(os, records[i]);
        if (i + 1 < records.size())
            os << ",";
        os << "\n";
    }
    os << "  ]\n}";
    return os.str();
}

bool
writeSweepResults(const std::string &path, const SweepRunMeta &meta,
                  const std::vector<SweepPointRecord> &records,
                  std::uint64_t master_seed, int threads,
                  double total_wall_seconds)
{
    std::ofstream out(path);
    if (!out) {
        FBFLY_WARN("cannot open '", path, "' for sweep JSON output");
        return false;
    }
    out << sweepResultsToJson(meta, records, master_seed, threads,
                              total_wall_seconds)
        << "\n";
    out.flush();
    if (!out) {
        FBFLY_WARN("short write of sweep JSON to '", path, "'");
        return false;
    }
    return true;
}

} // namespace fbfly
