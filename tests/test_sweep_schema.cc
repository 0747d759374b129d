/**
 * @file
 * Schema validation of the fbfly-sweep-v1 JSON document
 * (harness/result_writer.h) against the checked-in schema
 * tests/data/fbfly-sweep-v1.schema.json.
 *
 * Parsing and subset validation live in the shared test helper
 * tests/json_test_util.h (also used by the fbfly-pareto-v1 document
 * test): parsing the writer's output from scratch is itself the test
 * that the writer emits well-formed JSON (balanced structure,
 * escaped strings, no bare NaN).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "harness/result_writer.h"
#include "json_test_util.h"
#include "routing/min_adaptive.h"
#include "topology/flattened_butterfly.h"
#include "traffic/traffic_pattern.h"

namespace fbfly
{
namespace
{

#ifndef FBFLY_TEST_DATA_DIR
#error "FBFLY_TEST_DATA_DIR must be defined by the build"
#endif

using testjson::Json;
using testjson::JsonParser;
using testjson::validate;

Json
loadSchema()
{
    return testjson::loadSchema(FBFLY_TEST_DATA_DIR,
                                "fbfly-sweep-v1.schema.json");
}

// ---------------------------------------------------------------------
// Document generation
// ---------------------------------------------------------------------

/** A document with one real (obs-enabled) load point, one never-ran
 *  NaN point, and one batch point — covering every branch of the
 *  writer.  @p batch_completion, when given, receives the batch
 *  run's completion cycle. */
std::string
makeDocument(const std::string &trace_file,
             Cycle *batch_completion = nullptr)
{
    FlattenedButterfly topo(4, 2);
    MinAdaptive algo(topo);
    UniformRandom pattern(topo.numNodes());
    NetworkConfig netcfg;
    netcfg.vcDepth = 8;
    ExperimentConfig expcfg;
    expcfg.warmupCycles = 50;
    expcfg.measureCycles = 100;
    expcfg.drainCycles = 1000;
    expcfg.obs.metricsEnabled = true;
    expcfg.obs.metricsWindowCycles = 50;

    std::vector<SweepPointRecord> records;

    SweepPointRecord real;
    real.index = 0;
    real.series = "schema \"quoted\" series\n";
    real.topology = topo.name();
    real.routing = algo.name();
    real.traffic = pattern.name();
    real.seed = 42;
    real.wallSeconds = 0.25;
    real.load = runLoadPoint(topo, algo, pattern, netcfg, expcfg,
                             0.2);
    records.push_back(real);

    SweepPointRecord nan_point;
    nan_point.index = 1;
    nan_point.series = "never ran";
    nan_point.load.offered = 0.3;
    nan_point.load.status = LoadPointStatus::kInvalidConfig;
    records.push_back(nan_point); // all statistics still NaN

    SweepPointRecord batch;
    batch.index = 2;
    batch.kind = SweepPointKind::kBatch;
    batch.series = "batch";
    BatchResult ran = runBatch(topo, algo, pattern, netcfg, 42, 10);
    batch.load = std::move(ran.load);
    batch.batchSize = ran.batchSize;
    batch.completionTime = ran.completionTime;
    records.push_back(batch);
    if (batch_completion)
        *batch_completion = ran.completionTime;

    SweepRunMeta meta;
    meta.bench = "schema_test";
    meta.description = "document for schema validation";
    meta.extra.emplace_back("key", "value");
    meta.extraNumbers.emplace_back("step_rate_cycles_per_sec", 1.25e6);
    meta.extraNumbers.emplace_back("never_measured_rate",
                                   std::nan(""));
    meta.traceFile = trace_file;
    return sweepResultsToJson(meta, records, 2007, 3, 1.5);
}

// ---------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------

TEST(SweepSchema, DocumentValidatesAgainstCheckedInSchema)
{
    const std::string doc = makeDocument("");
    JsonParser parser(doc);
    const Json root = parser.parse();
    const Json schema = loadSchema();
    ASSERT_EQ(schema.type, Json::Type::kObject);
    validate(root, schema, "$");
}

TEST(SweepSchema, RequiredKeysAndValues)
{
    const std::string doc = makeDocument("out.trace.json");
    JsonParser parser(doc);
    const Json root = parser.parse();

    ASSERT_EQ(root.type, Json::Type::kObject);
    const Json *schema_tag = root.find("schema");
    ASSERT_NE(schema_tag, nullptr);
    EXPECT_EQ(schema_tag->str, kSweepJsonSchema);
    EXPECT_EQ(root.find("seed")->number, 2007.0);
    EXPECT_EQ(root.find("threads")->number, 3.0);

    // trace_file round-trips as a string when set...
    const Json *tf = root.find("trace_file");
    ASSERT_NE(tf, nullptr);
    EXPECT_EQ(tf->type, Json::Type::kString);
    EXPECT_EQ(tf->str, "out.trace.json");

    const Json *points = root.find("points");
    ASSERT_NE(points, nullptr);
    ASSERT_EQ(points->elems.size(), 3u);

    // ... and as null when unset.
    const std::string doc2 = makeDocument("");
    JsonParser p2(doc2);
    const Json root2 = p2.parse();
    EXPECT_EQ(root2.find("trace_file")->type, Json::Type::kNull);
}

TEST(SweepSchema, NaNSerializesAsNullNeverAsNumber)
{
    const std::string doc = makeDocument("");
    EXPECT_EQ(doc.find("nan"), std::string::npos);
    EXPECT_EQ(doc.find("inf"), std::string::npos);

    JsonParser parser(doc);
    const Json root = parser.parse();
    const Json &nan_point = root.find("points")->elems[1];

    // The never-ran point: every derived statistic is null, the
    // counters are real zeros, the status string survives.
    for (const char *key :
         {"accepted", "avg_latency", "avg_network_latency",
          "avg_hops", "p99_latency", "retransmit_rate"}) {
        const Json *v = nan_point.find(key);
        ASSERT_NE(v, nullptr) << key;
        EXPECT_EQ(v->type, Json::Type::kNull)
            << key << " should be null for a never-ran point";
    }
    EXPECT_EQ(nan_point.find("offered")->number, 0.3);
    EXPECT_EQ(nan_point.find("status")->str, "invalid-config");
    EXPECT_EQ(nan_point.find("valid")->type, Json::Type::kBool);
    EXPECT_FALSE(nan_point.find("valid")->boolean);

    // The real point's statistics are finite numbers.
    const Json &real = root.find("points")->elems[0];
    EXPECT_EQ(real.find("accepted")->type, Json::Type::kNumber);
    EXPECT_TRUE(std::isfinite(real.find("accepted")->number));
    // The escaped series label round-trips.
    EXPECT_EQ(real.find("series")->str, "schema \"quoted\" series\n");
}

TEST(SweepSchema, MetadataNumbersAreNumbersNotStrings)
{
    const std::string doc = makeDocument("");
    JsonParser parser(doc);
    const Json root = parser.parse();

    const Json *metadata = root.find("metadata");
    ASSERT_NE(metadata, nullptr);
    ASSERT_EQ(metadata->type, Json::Type::kObject);

    // extraNumbers entries land as real JSON numbers (NaN as null),
    // never as quoted strings.
    const Json *rate = metadata->find("step_rate_cycles_per_sec");
    ASSERT_NE(rate, nullptr);
    EXPECT_EQ(rate->type, Json::Type::kNumber);
    EXPECT_EQ(rate->number, 1.25e6);
    const Json *nan_rate = metadata->find("never_measured_rate");
    ASSERT_NE(nan_rate, nullptr);
    EXPECT_EQ(nan_rate->type, Json::Type::kNull);

    // No metadata *string* value may itself be a number in disguise:
    // a value that strtod parses in full is stringly-typed numeric
    // metadata, which downstream tooling would have to re-parse.
    // (micro_kernel's step rates regressed exactly this way once.)
    for (const auto &[key, value] : metadata->members) {
        if (value.type != Json::Type::kString ||
            value.str.empty())
            continue;
        char *end = nullptr;
        std::strtod(value.str.c_str(), &end);
        EXPECT_NE(end, value.str.c_str() + value.str.size())
            << "metadata key \"" << key
            << "\" holds the numeric string \"" << value.str
            << "\" — emit it via SweepRunMeta::extraNumbers instead";
    }
}

TEST(SweepSchema, MetricsObjectShape)
{
    Cycle ran_completion = 0;
    const std::string doc = makeDocument("", &ran_completion);
    JsonParser parser(doc);
    const Json root = parser.parse();
    const Json &real = root.find("points")->elems[0];

    const Json *metrics = real.find("metrics");
    ASSERT_NE(metrics, nullptr)
        << "obs-enabled point must carry a metrics object";
    ASSERT_EQ(metrics->type, Json::Type::kObject);
    const Json *counters = metrics->find("counters");
    ASSERT_NE(counters, nullptr);
    EXPECT_NE(counters->find("net.flits_injected"), nullptr);
    const Json *series = metrics->find("series");
    ASSERT_NE(series, nullptr);
    const Json *util = series->find("obs.channel_util.mean");
    ASSERT_NE(util, nullptr);
    EXPECT_NE(util->find("window_cycles"), nullptr);
    EXPECT_NE(util->find("values"), nullptr);

    // The never-ran point carries no metrics at all.
    EXPECT_EQ(root.find("points")->elems[1].find("metrics"),
              nullptr);

    // Batch points carry the batch fields and the shared ones.
    const Json &batch = root.find("points")->elems[2];
    EXPECT_EQ(batch.find("kind")->str, "batch");
    EXPECT_EQ(batch.find("batch_size")->number, 10.0);
    EXPECT_GT(ran_completion, 10u);
    EXPECT_EQ(batch.find("completion_cycles")->number,
              static_cast<double>(ran_completion));
    EXPECT_EQ(batch.find("normalized_latency")->number,
              static_cast<double>(ran_completion) / 10.0);
    EXPECT_EQ(batch.find("accepted")->number,
              NetworkConfig().packetSize * 10.0 /
                  static_cast<double>(ran_completion));
    EXPECT_EQ(batch.find("status")->str, "delivered");
    const Json *delivery = batch.find("delivery");
    ASSERT_NE(delivery, nullptr);
    EXPECT_TRUE(delivery->find("clean")->boolean);
}

} // namespace
} // namespace fbfly
