/**
 * @file
 * Machine-readable sweep results (docs/SWEEPS.md).
 *
 * Emits one JSON document per sweep run ("fbfly-sweep-v1" schema):
 * run metadata (bench name, master seed, thread count, git describe,
 * wall time, parallel speedup) plus one object per executed point —
 * offered/accepted/latency/p99/status/delivery/wall-time for every
 * point, plus batch size/completion/normalized latency for batch
 * runs.
 *
 * NaN statistics (a run's validity convention, see
 * LoadPointResult) serialize as JSON null, never as a number a
 * downstream consumer could average by accident.
 */

#ifndef FBFLY_HARNESS_RESULT_WRITER_H
#define FBFLY_HARNESS_RESULT_WRITER_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "harness/sweep.h"

namespace fbfly
{

/** Version tag written into every document. */
inline constexpr const char *kSweepJsonSchema = "fbfly-sweep-v1";

/** Source revision baked in at configure time ("unknown" outside a
 *  git checkout). */
const char *gitDescribe();

/**
 * Run-level metadata for a sweep JSON document.
 */
struct SweepRunMeta
{
    /** Bench / experiment name, e.g. "fig04_routing". */
    std::string bench;
    /** Free-form description (optional). */
    std::string description;
    /** Extra string key/value pairs merged into "metadata". */
    std::vector<std::pair<std::string, std::string>> extra;
    /** Extra *numeric* key/value pairs merged into "metadata" —
     *  emitted as JSON numbers (round-trip-exact, NaN -> null),
     *  never as quoted strings.  Use this for rates/counts so
     *  downstream tooling can consume them without parsing. */
    std::vector<std::pair<std::string, double>> extraNumbers;
    /** Path of the Chrome-trace JSON written for this run ("" when
     *  tracing was off); serialized as top-level "trace_file" (null
     *  when empty).  See docs/OBSERVABILITY.md. */
    std::string traceFile;
};

/**
 * Render a completed sweep as a JSON document (no trailing newline).
 *
 * @param meta     run-level metadata.
 * @param records  executed points, in index order.
 * @param master_seed seed the per-point seeds derive from.
 * @param threads  worker count of the run.
 * @param total_wall_seconds wall clock of the whole run.
 */
std::string sweepResultsToJson(
    const SweepRunMeta &meta,
    const std::vector<SweepPointRecord> &records,
    std::uint64_t master_seed, int threads,
    double total_wall_seconds);

/**
 * Write sweepResultsToJson() + '\n' to @p path.
 *
 * @return true on success; false (with a warning) on I/O failure.
 */
bool writeSweepResults(const std::string &path,
                       const SweepRunMeta &meta,
                       const std::vector<SweepPointRecord> &records,
                       std::uint64_t master_seed, int threads,
                       double total_wall_seconds);

} // namespace fbfly

#endif // FBFLY_HARNESS_RESULT_WRITER_H
