// C5 — Section 4.3 comparison with Druid: "Pinot ... has incorporated
// optimized data structures such as bit compressed forward indices, for
// lowering the data footprint. It also uses specialized indices for faster
// query execution such as Startree, sorted and range indices, which could
// result in order of magnitude difference of query latency."
//
// Builds the same data as (a) a Pinot-like segment with star-tree + sorted
// + bit-packed indexes and (b) a Druid-like segment (dictionary + inverted
// only, plain 32-bit forward index), then compares aggregation latency per
// index ablation and the data footprint.
//
// Also isolates the execution engine itself: the same bit-packed + inverted
// segment runs a filtered group-by through the vectorized engine
// (selection bitmaps + batched decode + packed group keys), the
// row-at-a-time scalar oracle, and the Druid-like baseline. With
// UBERRT_PERF_GATE set, exits non-zero if the vectorized engine is slower
// than the scalar one (the CI perf smoke gate in ci.sh).

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "olap/baselines.h"
#include "olap/segment.h"

namespace uberrt {
namespace {

using olap::FilterPredicate;
using olap::OlapAggregation;
using olap::OlapQuery;
using olap::Segment;
using olap::SegmentIndexConfig;

RowSchema TripSchema() {
  return RowSchema({{"hex", ValueType::kString},
                    {"status", ValueType::kString},
                    {"fare", ValueType::kDouble},
                    {"ts", ValueType::kInt}});
}

std::vector<Row> MakeRows(int64_t n) {
  Rng rng(11);
  std::vector<Row> rows;
  const char* statuses[] = {"requested", "accepted", "completed", "canceled"};
  for (int64_t i = 0; i < n; ++i) {
    rows.push_back({Value("hex" + std::to_string(rng.Zipf(60, 1.1))),
                    Value(std::string(statuses[rng.Uniform(0, 3)])),
                    Value(5.0 + rng.NextDouble() * 40),
                    Value(rng.Uniform(0, 3'600'000))});
  }
  return rows;
}

/// Mean latency over 30 executions, repeated `repeats` times; returns the
/// median repeat and reports the spread through `min_us`/`max_us`.
double QueryUs(const std::shared_ptr<Segment>& segment, const OlapQuery& query,
               olap::OlapQueryStats* stats, int repeats = 1, double* min_us = nullptr,
               double* max_us = nullptr) {
  std::vector<double> means;
  for (int r = 0; r < repeats; ++r) {
    means.push_back(bench::MeanUs(30, [&] {
      olap::OlapQueryStats s;
      segment->Execute(query, nullptr, &s).ok();
      *stats = s;
    }));
  }
  std::sort(means.begin(), means.end());
  if (min_us != nullptr) *min_us = means.front();
  if (max_us != nullptr) *max_us = means.back();
  return means[means.size() / 2];
}

}  // namespace

int Main() {
  bench::Header("C5", "Pinot-like indexes vs Druid-like plain column store",
                "star-tree/sorted/range indexes: order-of-magnitude latency gap; "
                "bit-packed forward index: lower footprint");
  constexpr int64_t kRows = 200'000;
  std::vector<Row> rows = MakeRows(kRows);

  SegmentIndexConfig pinot_config;
  pinot_config.inverted_columns = {"status"};
  pinot_config.sorted_column = "hex";
  pinot_config.star_tree_dimensions = {"hex", "status"};
  pinot_config.star_tree_metrics = {"fare"};
  // Build consumes its rows; the first two builds get copies.
  auto pinot =
      Segment::Build("pinot", TripSchema(), std::vector<Row>(rows), pinot_config).value();
  auto druid = Segment::Build("druid", TripSchema(), std::vector<Row>(rows),
                              olap::DruidLikeIndexConfig({"status"}))
                   .value();

  // Query 1: aggregation + group-by answerable from the star-tree.
  OlapQuery cube;
  cube.group_by = {"hex"};
  cube.aggregations = {OlapAggregation::Count("n"), OlapAggregation::Sum("fare", "s")};
  // Query 1b: the dashboard shape: EQ on the leading star dim, group-by on
  // the next one (a binary-searched run of the cube level).
  OlapQuery cube_filtered;
  cube_filtered.group_by = {"status"};
  cube_filtered.aggregations = {OlapAggregation::Sum("fare", "s")};
  cube_filtered.filters = {FilterPredicate::Eq("hex", Value("hex3"))};
  // Query 2: EQ filter on the sorted column.
  OlapQuery sorted_eq;
  sorted_eq.aggregations = {OlapAggregation::Sum("fare", "s")};
  sorted_eq.filters = {FilterPredicate::Eq("hex", Value("hex3"))};
  // Query 3: range predicate (served by the inverted/range path vs scan).
  OlapQuery range;
  range.aggregations = {OlapAggregation::Count("n")};
  range.filters = {FilterPredicate::Range("hex", FilterPredicate::Op::kLe,
                                          Value("hex2"))};

  struct Case {
    const char* name;
    const char* json_name;
    const OlapQuery* query;
    int repeats;  ///< star-tree latencies are a few us: median of 5 repeats
  } cases[] = {{"groupby_agg (star-tree)", "groupby_star", &cube, 5},
               {"eq+groupby (star-tree run)", "groupby_star_filtered", &cube_filtered, 5},
               {"eq_filter (sorted idx)", "eq_sorted", &sorted_eq, 1},
               {"range_filter (range idx)", "range", &range, 1}};

  bench::JsonReport report(
      "c5",
      "Pinot-like indexes vs Druid-like plain store; vectorized engine vs "
      "row-at-a-time scalar on identical storage");

  std::printf("%-28s %12s %12s %9s %s\n", "query", "pinot_us", "druid_us", "speedup",
              "pinot path");
  for (const Case& c : cases) {
    olap::OlapQueryStats pinot_stats, druid_stats;
    double min_us = 0, max_us = 0;
    double pinot_us = QueryUs(pinot, *c.query, &pinot_stats, c.repeats, &min_us, &max_us);
    double druid_us = QueryUs(druid, *c.query, &druid_stats);
    const char* path = pinot_stats.star_tree_hits > 0
                           ? "star-tree (0 rows scanned)"
                           : (pinot_stats.rows_scanned < kRows / 10 ? "index" : "scan");
    std::printf("%-28s %12.1f %12.1f %8.1fx %s\n", c.name, pinot_us, druid_us,
                druid_us / pinot_us, path);
    report.Metric(std::string(c.json_name) + "_pinot_us", pinot_us);
    if (c.repeats > 1) {
      report.Metric(std::string(c.json_name) + "_pinot_us_min", min_us);
      report.Metric(std::string(c.json_name) + "_pinot_us_max", max_us);
    }
    report.Metric(std::string(c.json_name) + "_druid_us", druid_us);
  }

  // Engine ablation on identical storage: bit-packed + inverted on status,
  // deliberately no star-tree so the filtered group-by actually executes.
  // status EQ is index-served, fare GT runs as a residual scan predicate.
  SegmentIndexConfig exec_config;
  exec_config.inverted_columns = {"status"};
  auto exec_segment = Segment::Build("exec", TripSchema(), std::move(rows), exec_config).value();

  OlapQuery filtered_group_by;
  filtered_group_by.group_by = {"hex"};
  filtered_group_by.aggregations = {OlapAggregation::Count("n"),
                                    OlapAggregation::Sum("fare", "s"),
                                    OlapAggregation::Min("fare", "lo"),
                                    OlapAggregation::Max("fare", "hi")};
  filtered_group_by.filters = {
      FilterPredicate::Eq("status", Value("completed")),
      FilterPredicate::Range("fare", FilterPredicate::Op::kGt, Value(20.0))};

  olap::OlapQueryStats vec_stats, scalar_stats, baseline_stats;
  double vectorized_us = QueryUs(exec_segment, filtered_group_by, &vec_stats);
  double scalar_us = bench::MeanUs(30, [&] {
    olap::OlapQueryStats s;
    olap::ScalarBaselineExecute(*exec_segment, filtered_group_by, &s).ok();
    scalar_stats = s;
  });
  // The Druid-like baseline pairs the plain 32-bit store with the scalar
  // engine: the seed's execution model end to end.
  double baseline_us = bench::MeanUs(30, [&] {
    olap::OlapQueryStats s;
    olap::ScalarBaselineExecute(*druid, filtered_group_by, &s).ok();
    baseline_stats = s;
  });

  std::printf("\n%-28s %12s %10s %12s %9s\n", "filtered group-by engine",
              "latency_us", "vs scalar", "rows_scanned", "batches");
  std::printf("%-28s %12.1f %9.2fx %12lld %9lld\n", "vectorized", vectorized_us,
              scalar_us / vectorized_us,
              static_cast<long long>(vec_stats.rows_scanned),
              static_cast<long long>(vec_stats.exec_batches));
  std::printf("%-28s %12.1f %9.2fx %12lld %9s\n", "scalar (oracle)", scalar_us, 1.0,
              static_cast<long long>(scalar_stats.rows_scanned), "-");
  std::printf("%-28s %12.1f %9.2fx %12lld %9s\n", "baseline (druid-like+scalar)",
              baseline_us, scalar_us / baseline_us,
              static_cast<long long>(baseline_stats.rows_scanned), "-");
  report.Metric("filtered_groupby_vectorized_us", vectorized_us);
  report.Metric("filtered_groupby_scalar_us", scalar_us);
  report.Metric("filtered_groupby_baseline_us", baseline_us);
  report.Metric("vectorized_speedup_vs_scalar", scalar_us / vectorized_us);
  report.Metric("engine_exec_batches", static_cast<double>(vec_stats.exec_batches));
  report.Metric("engine_bitmap_words", static_cast<double>(vec_stats.bitmap_words));

  std::printf("\n%-28s %14s %14s %8s\n", "footprint", "pinot", "druid", "ratio");
  std::printf("%-28s %14lld %14lld %7.2fx\n", "memory_bytes",
              static_cast<long long>(pinot->MemoryBytes()),
              static_cast<long long>(druid->MemoryBytes()),
              static_cast<double>(druid->MemoryBytes()) / pinot->MemoryBytes());
  std::printf("%-28s %14lld %14lld %7.2fx\n", "disk_bytes",
              static_cast<long long>(pinot->DiskBytes()),
              static_cast<long long>(druid->DiskBytes()),
              static_cast<double>(druid->DiskBytes()) / pinot->DiskBytes());
  bench::Note("druid-like = dictionary + inverted index, 32-bit forward index, "
              "no star-tree/sorted/range specialization");
  report.Metric("footprint_memory_ratio",
                static_cast<double>(druid->MemoryBytes()) / pinot->MemoryBytes());
  report.Metric("footprint_disk_ratio",
                static_cast<double>(druid->DiskBytes()) / pinot->DiskBytes());
  std::printf("%-28s %14lld %14s\n", "star_tree_bytes (flat cube)",
              static_cast<long long>(pinot->StarTreeMemoryBytes()), "-");
  report.Metric("star_tree_memory_bytes", static_cast<double>(pinot->StarTreeMemoryBytes()));
  report.Metric("pinot_memory_bytes", static_cast<double>(pinot->MemoryBytes()));
  report.Write();

  if (std::getenv("UBERRT_PERF_GATE") != nullptr) {
    if (vectorized_us > scalar_us) {
      std::printf("PERF GATE FAIL: vectorized %.1fus slower than scalar %.1fus\n",
                  vectorized_us, scalar_us);
      return 1;
    }
    std::printf("PERF GATE OK: vectorized %.2fx faster than scalar\n",
                scalar_us / vectorized_us);
  }
  return 0;
}

}  // namespace uberrt

int main() { return uberrt::Main(); }
