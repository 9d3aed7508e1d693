// tiering — Section 4.3.4: memory is the scarce resource on realtime Pinot
// servers; history migrates to the archival tier while queries stay correct.
//
// Seals a deferred-index table into a few dozen segments, runs background
// compaction, then sweeps the hot/warm/cold tier mix from all-hot to
// mostly-cold (100/0/0 -> 60/30/10 -> 20/30/50, as byte targets against the
// all-hot footprint). For every mix it measures the resident footprint and
// the query latency distribution (each rep re-applies the tier targets, so
// p99 includes the cold-reload path) and verifies bitwise result parity
// against the all-hot fingerprints. Everything lands in BENCH_tiering.json.
//
// With UBERRT_PERF_GATE set, exits non-zero unless:
//   - the all-warm footprint is under 0.5x the all-hot footprint (the packed
//     frame + lazy skeleton must actually be cheaper than decoded columns);
//   - with the budget at 40% of all-hot, enforcement holds the cluster
//     within 1.1x the budget, before and after a full query pass.
// Parity is checked unconditionally — a mismatch fails the bench even
// ungated.

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/executor.h"
#include "olap/cluster.h"
#include "stream/broker.h"
#include "stream/producer.h"

namespace uberrt {
namespace {

constexpr int kPartitions = 8;
constexpr int kRows = 24000;
constexpr int kRepsPerRatio = 8;

std::string Fingerprint(const olap::OlapResult& result) {
  std::string fp;
  for (const Row& row : result.rows) fp += EncodeRow(row) + "\x1f";
  return fp;
}

/// Queries touch 4 of the table's 8 columns, so the warm tier only ever
/// materializes half the columns — the lazy-decode win the sweep measures.
std::vector<olap::OlapQuery> QuerySet() {
  std::vector<olap::OlapQuery> queries;
  olap::OlapQuery by_city;
  by_city.group_by = {"city"};
  by_city.aggregations = {olap::OlapAggregation::Count("n"),
                          olap::OlapAggregation::Sum("fare", "s")};
  by_city.order_by = "n";
  queries.push_back(by_city);
  olap::OlapQuery global;
  global.aggregations = {olap::OlapAggregation::Count("n"),
                         olap::OlapAggregation::Min("fare", "lo"),
                         olap::OlapAggregation::Max("fare", "hi")};
  global.filters = {olap::FilterPredicate::Range(
      "ts", olap::FilterPredicate::Op::kGe, Value(int64_t{5000}))};
  queries.push_back(global);
  olap::OlapQuery select;
  select.select_columns = {"ride_id", "city", "fare"};
  select.filters = {olap::FilterPredicate::Eq("city", Value("sf"))};
  select.order_by = "ride_id";
  select.order_desc = false;
  select.limit = 128;
  queries.push_back(select);
  olap::OlapQuery ranged;
  ranged.aggregations = {olap::OlapAggregation::Count("n")};
  ranged.filters = {olap::FilterPredicate::Range(
      "ride_id", olap::FilterPredicate::Op::kGe, Value(int64_t{kRows / 2}))};
  queries.push_back(ranged);
  return queries;
}

double Percentile(std::vector<int64_t> us, double p) {
  if (us.empty()) return 0.0;
  std::sort(us.begin(), us.end());
  size_t idx = static_cast<size_t>(p * (us.size() - 1));
  return static_cast<double>(us[idx]);
}

}  // namespace

int Main() {
  bench::Header("tiering", "hot/warm/cold segment tiers under a memory budget",
                "realtime servers keep memory bounded by tiering history to "
                "the archival store without losing query correctness");
  bench::JsonReport report(
      "tiering",
      "warm tier < 0.5x hot footprint; a 40% budget holds within 1.1x with "
      "bitwise-identical results");

  stream::Broker broker("c1");
  storage::InMemoryObjectStore store;
  common::ExecutorOptions pool;
  pool.num_threads = 4;
  pool.name = "executor.bench_tiering";
  common::Executor executor(pool);
  olap::OlapCluster cluster(&broker, &store, &executor);

  stream::TopicConfig topic;
  topic.num_partitions = kPartitions;
  broker.CreateTopic("rides", topic).ok();
  olap::TableConfig table;
  table.name = "rides_t";
  table.schema = RowSchema({{"ride_id", ValueType::kInt},
                            {"city", ValueType::kString},
                            {"driver", ValueType::kString},
                            {"status", ValueType::kString},
                            {"fare", ValueType::kDouble},
                            {"tip", ValueType::kDouble},
                            {"distance", ValueType::kDouble},
                            {"ts", ValueType::kInt}});
  table.time_column = "ts";
  table.segment_rows_threshold = 1024;
  table.index_config.inverted_columns = {"city", "status"};
  table.deferred_index_build = true;
  olap::ClusterTableOptions options;
  options.num_servers = 4;
  cluster.CreateTable(table, "rides", options).ok();

  const char* cities[] = {"sf", "nyc", "la", "chi", "sea", "mia"};
  const char* statuses[] = {"done", "canceled", "active"};
  for (int i = 0; i < kRows; ++i) {
    stream::Message m;
    m.key = "k" + std::to_string(i % 64);
    m.value = EncodeRow({Value(static_cast<int64_t>(i)),
                         Value(std::string(cities[i % 6])),
                         Value("driver" + std::to_string(i % 500)),
                         Value(std::string(statuses[i % 3])),
                         Value(5.0 + i % 37), Value(0.5 * (i % 9)),
                         Value(1.0 + i % 23),
                         Value(static_cast<int64_t>(i))});
    m.timestamp = i;
    stream::ProduceOne(&broker, "rides", std::move(m)).ok();
  }
  cluster.IngestAll("rides_t").ok();
  cluster.ForceSeal("rides_t").ok();
  Result<int64_t> compacted = cluster.CompactOnce("rides_t");
  std::printf("segments compacted (deferred index rebuild): %lld\n",
              compacted.ok() ? static_cast<long long>(compacted.value()) : -1LL);
  // Archive everything up front: cold demotion then rides the existing blobs.
  cluster.DrainArchivalQueue("rides_t").ok();

  const std::vector<olap::OlapQuery> queries = QuerySet();
  std::vector<std::string> hot_fps;
  for (const olap::OlapQuery& q : queries) {
    Result<olap::OlapResult> r = cluster.Query("rides_t", q);
    if (!r.ok()) {
      std::printf("FAIL: hot query error: %s\n", r.status().ToString().c_str());
      return 1;
    }
    hot_fps.push_back(Fingerprint(r.value()));
  }
  const int64_t all_hot = cluster.lifecycle()->ManagedBytes();
  const int64_t num_segments =
      static_cast<int64_t>(store.List("segments/rides_t/").size());
  report.Metric("all_hot_bytes", static_cast<double>(all_hot));
  report.Metric("rows", static_cast<double>(kRows));
  report.Metric("segments", static_cast<double>(num_segments));

  struct Ratio {
    const char* name;
    int hot_pct, warm_pct;  // cold = remainder
  };
  const Ratio ratios[] = {{"100_0_0", 100, 0}, {"60_30_10", 60, 30},
                          {"20_30_50", 20, 30}};
  std::printf("%-10s %14s %8s %10s %10s %7s\n", "mix(h/w/c)", "resident", "vs_hot",
              "p50_us", "p99_us", "parity");
  bool parity_ok = true;
  for (const Ratio& ratio : ratios) {
    // ApplyTierTargets caps tier populations (segment counts, LRU order).
    const int64_t max_hot = num_segments * ratio.hot_pct / 100;
    const int64_t max_warm = num_segments * ratio.warm_pct / 100;
    cluster.lifecycle()->ApplyTierTargets(max_hot, max_warm).ok();
    const int64_t resident = cluster.lifecycle()->ManagedBytes();
    std::vector<int64_t> lat;
    for (int rep = 0; rep < kRepsPerRatio; ++rep) {
      // Re-cool every rep: the tail of the distribution is the cold-reload
      // path, the middle is warm/hot serving.
      cluster.lifecycle()->ApplyTierTargets(max_hot, max_warm).ok();
      for (size_t qi = 0; qi < queries.size(); ++qi) {
        Result<olap::OlapResult> r = Status::Internal("not run");
        lat.push_back(bench::TimeUs([&] { r = cluster.Query("rides_t", queries[qi]); }));
        if (!r.ok() || Fingerprint(r.value()) != hot_fps[qi]) parity_ok = false;
      }
    }
    const double p50 = Percentile(lat, 0.50), p99 = Percentile(lat, 0.99);
    std::printf("%-10s %14lld %7.2fx %10.0f %10.0f %7s\n", ratio.name,
                static_cast<long long>(resident),
                static_cast<double>(resident) / all_hot, p50, p99,
                parity_ok ? "ok" : "FAIL");
    const std::string prefix = std::string("ratio_") + ratio.name;
    report.Metric(prefix + "_resident_bytes", static_cast<double>(resident));
    report.Metric(prefix + "_footprint_vs_hot",
                  static_cast<double>(resident) / all_hot);
    report.Metric(prefix + "_p50_us", p50);
    report.Metric(prefix + "_p99_us", p99);
  }

  // All-warm footprint: the packed frame + lazy skeleton, no decoded columns.
  cluster.lifecycle()
      ->ApplyTierTargets(0, std::numeric_limits<int64_t>::max())
      .ok();
  const int64_t all_warm = cluster.lifecycle()->ManagedBytes();
  const double warm_ratio = static_cast<double>(all_warm) / all_hot;
  report.Metric("all_warm_bytes", static_cast<double>(all_warm));
  report.Metric("warm_vs_hot", warm_ratio);
  std::printf("all-warm footprint: %lld (%.2fx hot)\n",
              static_cast<long long>(all_warm), warm_ratio);

  // Budget mode: 40% of all-hot, enforced automatically after ingest/seal
  // and after queries that promoted or materialized.
  const int64_t budget = all_hot * 2 / 5;
  cluster.SetMemoryBudget(budget);
  cluster.EnforceMemoryBudget();
  const int64_t budgeted_before = cluster.lifecycle()->BudgetedBytes();
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    Result<olap::OlapResult> r = cluster.Query("rides_t", queries[qi]);
    if (!r.ok() || Fingerprint(r.value()) != hot_fps[qi]) parity_ok = false;
  }
  const int64_t budgeted_after = cluster.lifecycle()->BudgetedBytes();
  report.Metric("budget_bytes", static_cast<double>(budget));
  report.Metric("budgeted_bytes_before_queries", static_cast<double>(budgeted_before));
  report.Metric("budgeted_bytes_after_queries", static_cast<double>(budgeted_after));
  report.Metric("budget_headroom_ratio",
                static_cast<double>(budgeted_after) / budget);
  report.Metric("parity", parity_ok ? 1.0 : 0.0);
  std::printf("budget=%lld resident before/after query pass: %lld / %lld\n",
              static_cast<long long>(budget),
              static_cast<long long>(budgeted_before),
              static_cast<long long>(budgeted_after));
  bench::Note("each rep re-applies the tier targets, so p99 includes the "
              "cold-reload path while p50 is warm/hot serving");
  report.Write();

  if (!parity_ok) {
    std::printf("FAIL: tiered results diverged from the all-hot fingerprints\n");
    return 1;
  }
  if (std::getenv("UBERRT_PERF_GATE") != nullptr) {
    if (warm_ratio >= 0.5) {
      std::printf("PERF GATE FAIL: all-warm footprint %.2fx hot (want < 0.5x)\n",
                  warm_ratio);
      return 1;
    }
    if (budgeted_before > budget * 11 / 10 || budgeted_after > budget * 11 / 10) {
      std::printf("PERF GATE FAIL: budget %lld exceeded: %lld / %lld (>1.1x)\n",
                  static_cast<long long>(budget),
                  static_cast<long long>(budgeted_before),
                  static_cast<long long>(budgeted_after));
      return 1;
    }
    std::printf("PERF GATE OK: warm %.2fx hot, budget held within %.2fx\n",
                warm_ratio, static_cast<double>(budgeted_after) / budget);
  }
  return 0;
}

}  // namespace uberrt

int main() { return uberrt::Main(); }
