// Concurrency stress suite for the OLAP cluster. Mirrors the stream broker
// suite: real threads hammer one cluster with queries, ingestion, table
// churn, archival drains and server kill/recover, and the whole file is an
// acceptance gate under -DUBERRT_SANITIZE=thread and =address builds. The
// pre-refactor cluster held one cluster-wide mutex for every operation, so
// queries could neither overlap each other nor proceed during ingestion;
// the tests here assert the new behaviour (shared_ptr table ownership,
// per-table reader/writer locks, scatter-gather on the shared executor).

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/executor.h"
#include "olap/cluster.h"
#include "stream/broker.h"
#include "stream/producer.h"

namespace uberrt::olap {
namespace {

using stream::Broker;
using stream::Message;
using stream::TopicConfig;

RowSchema RideSchema() {
  return RowSchema({{"ride_id", ValueType::kInt},
                    {"city", ValueType::kString},
                    {"fare", ValueType::kDouble},
                    {"ts", ValueType::kInt}});
}

class OlapClusterConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    broker_ = std::make_unique<Broker>("c1");
    store_ = std::make_unique<storage::InMemoryObjectStore>();
    common::ExecutorOptions pool;
    pool.num_threads = 4;
    pool.name = "executor.olap_test";
    executor_ = std::make_unique<common::Executor>(pool);
    cluster_ = std::make_unique<OlapCluster>(broker_.get(), store_.get(),
                                             executor_.get());
    TopicConfig config;
    config.num_partitions = 8;
    ASSERT_TRUE(broker_->CreateTopic("rides", config).ok());
  }

  void ProduceRides(int count, int base = 0) {
    for (int i = 0; i < count; ++i) {
      Message m;
      m.key = "k" + std::to_string((base + i) % 16);
      m.value = EncodeRow({Value(int64_t{base} + i),
                           Value((base + i) % 2 == 0 ? "sf" : "nyc"),
                           Value(10.0 + (base + i) % 5),
                           Value(int64_t{1000} + base + i)});
      m.timestamp = 1000 + base + i;
      ASSERT_TRUE(stream::ProduceOne(broker_.get(), "rides", std::move(m)).ok());
    }
  }

  TableConfig RideTable(const std::string& name) {
    TableConfig config;
    config.name = name;
    config.schema = RideSchema();
    config.time_column = "ts";
    config.segment_rows_threshold = 64;
    config.index_config.inverted_columns = {"city"};
    return config;
  }

  static ClusterTableOptions FourServers() {
    ClusterTableOptions options;
    options.num_servers = 4;
    return options;
  }

  static OlapQuery GroupByCity() {
    OlapQuery query;
    query.group_by = {"city"};
    query.aggregations = {OlapAggregation::Count("rides"),
                          OlapAggregation::Sum("fare", "total")};
    query.order_by = "rides";
    return query;
  }

  std::unique_ptr<Broker> broker_;
  std::unique_ptr<storage::InMemoryObjectStore> store_;
  std::unique_ptr<common::Executor> executor_;
  std::unique_ptr<OlapCluster> cluster_;
};

// The headline assertion for the refactor: two queries must be *inside*
// Query() at the same time. The cluster counts in-flight queries in the
// olap.queries_executing gauge; a sampler thread must observe it at >= 2,
// which is impossible when a cluster-wide mutex serializes queries.
TEST_F(OlapClusterConcurrencyTest, QueriesOnDifferentTablesOverlap) {
  ProduceRides(2000);
  ASSERT_TRUE(cluster_->CreateTable(RideTable("a"), "rides", FourServers()).ok());
  ASSERT_TRUE(cluster_->CreateTable(RideTable("b"), "rides", FourServers()).ok());
  ASSERT_TRUE(cluster_->IngestAll("a").ok());
  ASSERT_TRUE(cluster_->IngestAll("b").ok());

  Gauge* executing = cluster_->metrics()->GetGauge("olap.queries_executing");
  std::atomic<bool> stop{false};
  std::atomic<int64_t> max_observed{0};
  std::thread sampler([&] {
    while (!stop.load()) {
      int64_t now = executing->value();
      int64_t seen = max_observed.load();
      while (now > seen && !max_observed.compare_exchange_weak(seen, now)) {
      }
    }
  });
  std::vector<std::thread> queriers;
  for (const std::string table : {"a", "b"}) {
    queriers.emplace_back([&, table] {
      OlapQuery query = GroupByCity();
      while (!stop.load()) {
        Result<OlapResult> result = cluster_->Query(table, query);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
      }
    });
  }
  // Query until overlap is demonstrated (deadline-capped for slow machines).
  TimestampMs deadline = SystemClock::Instance()->NowMs() + 5000;
  while (max_observed.load() < 2 && SystemClock::Instance()->NowMs() < deadline) {
    SystemClock::Instance()->SleepMs(1);
  }
  stop.store(true);
  sampler.join();
  for (std::thread& t : queriers) t.join();
  EXPECT_GE(max_observed.load(), 2);
}

// Parallel scatter-gather must be a pure execution-strategy change: the
// same query on the same data returns identical rows with and without the
// executor (the gather indexes partials by server, so merge order is
// deterministic either way).
TEST_F(OlapClusterConcurrencyTest, ParallelAndSerialQueriesAgree) {
  ProduceRides(1500);
  ASSERT_TRUE(cluster_->CreateTable(RideTable("t"), "rides", FourServers()).ok());
  ASSERT_TRUE(cluster_->IngestAll("t").ok());
  ASSERT_TRUE(cluster_->ForceSeal("t").ok());

  OlapQuery query = GroupByCity();
  Result<OlapResult> parallel = cluster_->Query("t", query);
  ASSERT_TRUE(parallel.ok());
  cluster_->SetExecutor(nullptr);
  Result<OlapResult> serial = cluster_->Query("t", query);
  ASSERT_TRUE(serial.ok());

  ASSERT_EQ(parallel.value().rows.size(), serial.value().rows.size());
  for (size_t i = 0; i < serial.value().rows.size(); ++i) {
    ASSERT_EQ(parallel.value().rows[i].size(), serial.value().rows[i].size());
    for (size_t f = 0; f < serial.value().rows[i].size(); ++f) {
      EXPECT_EQ(parallel.value().rows[i][f].ToString(),
                serial.value().rows[i][f].ToString());
    }
  }
  EXPECT_EQ(parallel.value().stats.servers_queried,
            serial.value().stats.servers_queried);
  EXPECT_EQ(parallel.value().stats.rows_scanned, serial.value().stats.rows_scanned);
}

// DropTable while queries and ingestion are in flight: the shared_ptr keeps
// the detached table alive for in-flight callers, so the worst legal
// outcome is NotFound on the next call — never a crash or use-after-free.
TEST_F(OlapClusterConcurrencyTest, DropTableWhileQueryAndIngestInFlight) {
  ProduceRides(1000);
  ASSERT_TRUE(cluster_->CreateTable(RideTable("churn"), "rides", FourServers()).ok());
  std::atomic<bool> stop{false};
  std::atomic<int64_t> queries_ok{0};
  std::atomic<int64_t> ingests_ok{0};

  std::thread querier([&] {
    OlapQuery query = GroupByCity();
    while (!stop.load()) {
      Result<OlapResult> result = cluster_->Query("churn", query);
      // Valid outcomes: data (possibly from a just-detached table), NotFound.
      if (result.ok()) queries_ok.fetch_add(1);
    }
  });
  std::thread ingester([&] {
    while (!stop.load()) {
      Result<int64_t> n = cluster_->IngestOnce("churn", 64);
      if (n.ok()) ingests_ok.fetch_add(1);
    }
  });
  std::thread stats([&] {
    while (!stop.load()) {
      cluster_->NumRows("churn").ok();
      cluster_->MemoryBytes("churn").ok();
      cluster_->IngestLag("churn").ok();
      cluster_->ArchivalQueueDepth("churn");
    }
  });

  TimestampMs deadline = SystemClock::Instance()->NowMs() + 5000;
  for (int i = 0; i < 300 || queries_ok.load() == 0 || ingests_ok.load() == 0; ++i) {
    cluster_->DropTable("churn").ok();
    cluster_->CreateTable(RideTable("churn"), "rides", FourServers()).ok();
    if (i % 64 == 0) SystemClock::Instance()->SleepMs(1);
    if (SystemClock::Instance()->NowMs() > deadline) break;
  }
  stop.store(true);
  querier.join();
  ingester.join();
  stats.join();
  EXPECT_GT(queries_ok.load(), 0);
  EXPECT_GT(ingests_ok.load(), 0);
  EXPECT_TRUE(cluster_->HasTable("churn"));
}

// One default IngestOnce drains a deep backlog in rounds and releases the
// write lock between them: a reader querying throughout must see the count
// climb through intermediate values, not jump from before to after. No
// partition reaches the seal threshold, so only the per-round message
// quota splits the drain.
TEST_F(OlapClusterConcurrencyTest, DrainReleasesWriteLockBetweenRounds) {
  const int kRows = 60000;
  ProduceRides(kRows);
  TableConfig config = RideTable("drain");
  config.segment_rows_threshold = kRows;
  ASSERT_TRUE(cluster_->CreateTable(config, "rides", FourServers()).ok());
  OlapQuery count;
  count.aggregations = {OlapAggregation::Count("n")};
  Result<OlapResult> before = cluster_->Query("drain", count);
  ASSERT_TRUE(before.ok());
  const int64_t before_rows = before.value().rows[0][0].AsInt();
  ASSERT_EQ(before_rows, 0);

  std::atomic<bool> started{false};
  std::atomic<bool> stop{false};
  std::vector<int64_t> seen;  // reader-thread only until join
  std::thread reader([&] {
    while (!stop.load()) {
      Result<OlapResult> r = cluster_->Query("drain", count);
      if (r.ok()) seen.push_back(r.value().rows[0][0].AsInt());
      started.store(true);
    }
  });
  while (!started.load()) std::this_thread::yield();
  Result<int64_t> n = cluster_->IngestOnce("drain");
  stop.store(true);
  reader.join();
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(n.value(), kRows);
  EXPECT_EQ(cluster_->IngestLag("drain").value(), 0);
  const int64_t after_rows = cluster_->NumRows("drain").value();
  EXPECT_EQ(after_rows, kRows);

  std::set<int64_t> intermediate;
  for (int64_t c : seen) {
    if (c > before_rows && c < after_rows) intermediate.insert(c);
  }
  EXPECT_GE(intermediate.size(), 2u) << "queries saw " << seen.size() << " counts";
}

// The everything-at-once soak and the suite's sanitizer acceptance gate:
// queries, ingestion pumps, seal + archival drains, server kill/recover and
// table churn all race on one cluster.
TEST_F(OlapClusterConcurrencyTest, FullStressSoak) {
  ProduceRides(500);
  ASSERT_TRUE(cluster_->CreateTable(RideTable("stable"), "rides", FourServers()).ok());
  ASSERT_TRUE(cluster_->CreateTable(RideTable("churn"), "rides", FourServers()).ok());
  ASSERT_TRUE(cluster_->IngestAll("stable").ok());
  std::atomic<bool> stop{false};
  std::atomic<int64_t> queries_ok{0};

  std::vector<std::thread> threads;
  for (int q = 0; q < 2; ++q) {
    threads.emplace_back([&, q] {  // queriers over both tables
      OlapQuery query = GroupByCity();
      while (!stop.load()) {
        if (cluster_->Query(q == 0 ? "stable" : "churn", query).ok()) {
          queries_ok.fetch_add(1);
        }
      }
    });
  }
  threads.emplace_back([&] {  // producer + ingestion pump
    int base = 500;
    while (!stop.load()) {
      ProduceRides(32, base);
      base += 32;
      cluster_->IngestOnce("stable", 64).ok();
      cluster_->IngestOnce("churn", 64).ok();
    }
  });
  threads.emplace_back([&] {  // seal + archival drain
    while (!stop.load()) {
      cluster_->ForceSeal("stable").ok();
      cluster_->DrainArchivalQueue("stable").ok();
      cluster_->DrainArchivalQueue("churn").ok();
    }
  });
  threads.emplace_back([&] {  // server kill/recover churn
    while (!stop.load()) {
      cluster_->KillServer("stable", 1).ok();
      cluster_->RecoverServer("stable", 1).ok();
    }
  });
  threads.emplace_back([&] {  // table churn
    while (!stop.load()) {
      cluster_->DropTable("churn").ok();
      cluster_->CreateTable(RideTable("churn"), "rides", FourServers()).ok();
    }
  });

  SystemClock::Instance()->SleepMs(400);
  stop.store(true);
  for (std::thread& t : threads) t.join();
  EXPECT_GT(queries_ok.load(), 0);
  EXPECT_TRUE(cluster_->HasTable("stable"));
}

}  // namespace
}  // namespace uberrt::olap
