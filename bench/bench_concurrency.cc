// 64-way query concurrency on the OLAP broker: closed-loop client threads
// hammer one table while the broker serves them serially (per-server
// sub-queries inline), morsel-parallel (per-segment morsels fanned out on
// the shared executor, bounded chunks), and from the result cache. Records
// p50/p99 latency and throughput per mode in BENCH_concurrency.json.
//
// With UBERRT_PERF_GATE set, exits non-zero if (a) the morsel-parallel path
// is more than the documented tolerance slower than serial at p99 (on a
// single-core container the pool adds scheduling overhead but must not
// collapse), or (b) the result cache fails to beat serial execution at p50.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/executor.h"
#include "olap/cluster.h"
#include "stream/broker.h"
#include "stream/producer.h"

namespace uberrt {
namespace {

constexpr int kThreads = 64;
constexpr int kQueriesPerThread = 25;
constexpr int kEpochs = 8;
constexpr int kRowsPerEpoch = 500;

struct Pcts {
  double p50 = 0.0;
  double p99 = 0.0;
};

Pcts Percentiles(std::vector<int64_t> us) {
  std::sort(us.begin(), us.end());
  Pcts p;
  if (us.empty()) return p;
  p.p50 = static_cast<double>(us[us.size() / 2]);
  p.p99 = static_cast<double>(us[std::min(us.size() - 1, us.size() * 99 / 100)]);
  return p;
}

std::vector<olap::OlapQuery> DashboardQueries() {
  using olap::FilterPredicate;
  using olap::OlapAggregation;
  std::vector<olap::OlapQuery> queries;
  {
    olap::OlapQuery q;  // city breakdown
    q.group_by = {"city"};
    q.aggregations = {OlapAggregation::Count("rides"),
                      OlapAggregation::Sum("fare", "total")};
    q.order_by = "rides";
    queries.push_back(q);
  }
  {
    olap::OlapQuery q;  // filtered count (inverted index)
    q.aggregations = {OlapAggregation::Count("n")};
    q.filters = {FilterPredicate::Eq("city", Value("sf"))};
    queries.push_back(q);
  }
  {
    olap::OlapQuery q;  // recent-epochs range: most segments zone-map pruned
    q.aggregations = {OlapAggregation::Count("n"),
                      OlapAggregation::Avg("fare", "avg_fare")};
    q.filters = {FilterPredicate::Range("ride_id", FilterPredicate::Op::kGe,
                                        Value(int64_t{(kEpochs - 2) * 1000}))};
    queries.push_back(q);
  }
  {
    olap::OlapQuery q;  // projection with limit
    q.select_columns = {"ride_id", "city", "fare"};
    q.filters = {FilterPredicate::Eq("city", Value("nyc"))};
    q.limit = 50;
    queries.push_back(q);
  }
  return queries;
}

/// 64 closed-loop clients, each running kQueriesPerThread queries round-robin
/// over the dashboard mix. Returns every per-query latency in microseconds.
std::vector<int64_t> RunClosedLoop(olap::OlapCluster* cluster,
                                   const std::vector<olap::OlapQuery>& queries,
                                   bool use_cache) {
  std::vector<std::vector<int64_t>> per_thread(kThreads);
  std::vector<std::thread> threads;
  std::atomic<bool> failed{false};
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      per_thread[t].reserve(kQueriesPerThread);
      for (int i = 0; i < kQueriesPerThread; ++i) {
        olap::OlapQuery q = queries[(t + i) % queries.size()];
        q.use_cache = use_cache;
        int64_t us = bench::TimeUs([&] {
          Result<olap::OlapResult> r = cluster->Query("rides_t", q);
          if (!r.ok()) failed.store(true);
        });
        per_thread[t].push_back(us);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  if (failed.load()) {
    std::printf("FATAL: query failed during closed loop\n");
    std::exit(1);
  }
  std::vector<int64_t> all;
  all.reserve(static_cast<size_t>(kThreads) * kQueriesPerThread);
  for (const auto& v : per_thread) all.insert(all.end(), v.begin(), v.end());
  return all;
}

int Main() {
  bench::Header("concurrency",
                "64-way dashboard concurrency: serial vs morsel-parallel vs cached",
                "Section 4.3: Pinot serves 100s of thousands of QPS dashboards; "
                "queries scatter per server and merge at the broker");

  stream::Broker broker("c1");
  storage::InMemoryObjectStore store;
  common::ExecutorOptions pool_options;
  pool_options.num_threads = 4;
  pool_options.name = "executor.bench_concurrency";
  common::Executor pool(pool_options);
  olap::OlapCluster cluster(&broker, &store, nullptr);  // start serial

  stream::TopicConfig topic;
  topic.num_partitions = 8;
  if (!broker.CreateTopic("rides", topic).ok()) return 1;

  olap::TableConfig table;
  table.name = "rides_t";
  table.schema = RowSchema({{"ride_id", ValueType::kInt},
                            {"city", ValueType::kString},
                            {"fare", ValueType::kDouble},
                            {"ts", ValueType::kInt}});
  table.time_column = "ts";
  table.segment_rows_threshold = 64;
  table.index_config.inverted_columns = {"city"};
  olap::ClusterTableOptions options;
  options.num_servers = 4;
  if (!cluster.CreateTable(table, "rides", options).ok()) return 1;

  const char* cities[] = {"sf", "nyc", "la", "chi", "sea"};
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    for (int i = 0; i < kRowsPerEpoch; ++i) {
      stream::Message m;
      m.key = "k" + std::to_string(i % 16);
      m.value = EncodeRow({Value(int64_t{epoch} * 1000 + i % 1000),
                           Value(cities[(epoch + i) % 5]), Value(5.0 + i % 7),
                           Value(int64_t{100000} * epoch + i)});
      m.timestamp = 100000 * epoch + i;
      if (!stream::ProduceOne(&broker, "rides", std::move(m)).ok()) return 1;
    }
  }
  if (!cluster.IngestAll("rides_t").ok()) return 1;
  if (!cluster.ForceSeal("rides_t").ok()) return 1;

  std::vector<olap::OlapQuery> queries = DashboardQueries();

  // Mode 1: serial broker (per-server sub-queries inline on the caller).
  Pcts serial = Percentiles(RunClosedLoop(&cluster, queries, /*use_cache=*/false));
  // Mode 2: morsel-parallel on the shared pool.
  cluster.SetExecutor(&pool);
  Pcts parallel = Percentiles(RunClosedLoop(&cluster, queries, /*use_cache=*/false));
  // Mode 3: dashboard path — same queries through the result cache.
  Pcts cached = Percentiles(RunClosedLoop(&cluster, queries, /*use_cache=*/true));

  const int64_t total = int64_t{kThreads} * kQueriesPerThread;
  std::printf("\n%-24s %12s %12s\n", "mode (64 clients)", "p50_us", "p99_us");
  std::printf("%-24s %12.0f %12.0f\n", "serial", serial.p50, serial.p99);
  std::printf("%-24s %12.0f %12.0f\n", "morsel-parallel", parallel.p50, parallel.p99);
  std::printf("%-24s %12.0f %12.0f\n", "result-cache", cached.p50, cached.p99);
  int64_t cache_hits =
      cluster.metrics()->GetCounter("olap.result_cache.hits")->value();
  int64_t pruned = cluster.metrics()->GetCounter("olap.segments_pruned")->value();
  std::printf("queries/mode: %lld, cache hits: %lld, segments pruned: %lld\n",
              static_cast<long long>(total), static_cast<long long>(cache_hits),
              static_cast<long long>(pruned));

  bench::JsonReport report(
      "concurrency",
      "64-way closed-loop dashboard load: morsel-parallel scatter must hold "
      "p99 near the serial broker; the result cache must beat both at p50");
  report.Metric("clients", kThreads);
  report.Metric("queries_per_mode", static_cast<double>(total));
  report.Metric("serial_p50_us", serial.p50);
  report.Metric("serial_p99_us", serial.p99);
  report.Metric("parallel_p50_us", parallel.p50);
  report.Metric("parallel_p99_us", parallel.p99);
  report.Metric("cached_p50_us", cached.p50);
  report.Metric("cached_p99_us", cached.p99);
  // Cache hits can round to 0us; floor the denominator to keep the ratio
  // (and the JSON) finite.
  const double cached_p50_floor = std::max(cached.p50, 1.0);
  report.Metric("parallel_vs_serial_p99", parallel.p99 / serial.p99);
  report.Metric("cached_speedup_p50", serial.p50 / cached_p50_floor);
  report.Metric("result_cache_hits", static_cast<double>(cache_hits));
  report.Metric("segments_pruned", static_cast<double>(pruned));
  report.Write();

  if (std::getenv("UBERRT_PERF_GATE") != nullptr) {
    // On a many-core box the pool should win outright; on the 1-2 core CI
    // container it only has to stay within scheduling-overhead tolerance.
    const double tolerance = std::thread::hardware_concurrency() >= 4 ? 1.3 : 2.0;
    if (parallel.p99 > serial.p99 * tolerance) {
      std::printf("PERF GATE FAIL: parallel p99 %.0fus > %.1fx serial p99 %.0fus\n",
                  parallel.p99, tolerance, serial.p99);
      return 1;
    }
    if (cached.p50 > serial.p50) {
      std::printf("PERF GATE FAIL: cached p50 %.0fus slower than serial p50 %.0fus\n",
                  cached.p50, serial.p50);
      return 1;
    }
    std::printf("PERF GATE OK: parallel p99 %.2fx serial, cache %.1fx faster at p50\n",
                parallel.p99 / serial.p99, serial.p50 / std::max(cached.p50, 1.0));
  }
  return 0;
}

}  // namespace
}  // namespace uberrt

int main() { return uberrt::Main(); }
