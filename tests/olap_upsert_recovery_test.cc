// Regression suite for the upsert/recovery correctness fixes:
//   1. A stale primary-key location must never index into dropped sealed
//      segments — kill-then-ingest used to write out of bounds (ASan).
//   2. Recovery (peer and store path) must not resurrect rows that later
//      upserts overwrote: restored segments are replayed in seal order to
//      rebuild key locations and row validity.
//   3. A store outage in sync-archival mode must halt ingestion WITHOUT
//      starving queries: the blocking ArchivePut retry loop runs off the
//      table's reader/writer lock.
// Runs in the ASan/TSan concurrency gate.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injector.h"
#include "olap/cluster.h"
#include "stream/broker.h"
#include "stream/producer.h"

namespace uberrt::olap {
namespace {

using stream::Broker;
using stream::Message;
using stream::TopicConfig;

class OlapUpsertRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    broker_ = std::make_unique<Broker>("c1");
    store_ = std::make_unique<storage::InMemoryObjectStore>();
    store_->SetFaultInjector(&faults_);
    cluster_ = std::make_unique<OlapCluster>(broker_.get(), store_.get());
    cluster_->SetFaultInjector(&faults_);
    TopicConfig config;
    config.num_partitions = 4;
    ASSERT_TRUE(broker_->CreateTopic("fares", config).ok());
  }

  TableConfig FareTable() {
    TableConfig config;
    config.name = "fares_t";
    config.schema = RowSchema({{"ride_id", ValueType::kString},
                               {"fare", ValueType::kDouble},
                               {"status", ValueType::kString}});
    config.segment_rows_threshold = 10;
    config.upsert_enabled = true;
    config.primary_key_column = "ride_id";
    return config;
  }

  void Produce(const std::string& ride, double fare, const std::string& status) {
    Message m;
    m.key = ride;  // stream partitioned by primary key
    m.value = EncodeRow({Value(ride), Value(fare), Value(status)});
    m.timestamp = 1;
    ASSERT_TRUE(stream::ProduceOne(broker_.get(), "fares", std::move(m)).ok());
  }

  struct CountSum {
    int64_t count = 0;
    double sum = 0.0;
  };
  CountSum QueryCountSum() {
    OlapQuery query;
    query.aggregations = {OlapAggregation::Count("n"),
                          OlapAggregation::Sum("fare", "s")};
    Result<OlapResult> result = cluster_->Query("fares_t", query);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok()) return {};
    return {result.value().rows[0][0].AsInt(), result.value().rows[0][1].AsDouble()};
  }

  common::FaultInjector faults_;
  std::unique_ptr<Broker> broker_;
  std::unique_ptr<storage::InMemoryObjectStore> store_;
  std::unique_ptr<OlapCluster> cluster_;
};

// Bugfix 1: KillServer drops the sealed segments but the key->location map
// used to keep entries pointing into them; the next upsert for such a key
// wrote through the stale index into a cleared vector (out-of-bounds under
// ASan). After the fix those locations are erased with the segments, and
// re-ingest + recovery converge to one live row per key.
TEST_F(OlapUpsertRecoveryTest, UpsertAfterKillDoesNotWriteThroughStaleLocations) {
  ClusterTableOptions options;
  options.num_servers = 2;
  options.replication_factor = 2;
  ASSERT_TRUE(cluster_->CreateTable(FareTable(), "fares", options).ok());
  for (int i = 0; i < 30; ++i) Produce("ride" + std::to_string(i), 10.0, "completed");
  ASSERT_TRUE(cluster_->IngestAll("fares_t").ok());
  // Seal so every key's location points into a sealed segment.
  ASSERT_TRUE(cluster_->ForceSeal("fares_t").ok());

  ASSERT_TRUE(cluster_->KillServer("fares_t", 0).ok());
  // Every key gets a correction — keys homed on server 0 now have locations
  // that (pre-fix) still pointed into the dropped segments.
  for (int i = 0; i < 30; ++i) Produce("ride" + std::to_string(i), 99.0, "corrected");
  ASSERT_TRUE(cluster_->IngestAll("fares_t").ok());

  CountSum after_corrections = QueryCountSum();
  EXPECT_EQ(after_corrections.count, 30);
  EXPECT_DOUBLE_EQ(after_corrections.sum, 30 * 99.0);

  // Recovery replays the restored segments under the buffered corrections:
  // still exactly one live row per key, all corrected.
  Result<RecoveryReport> report = cluster_->RecoverServer("fares_t", 0);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().segments_lost, 0);
  CountSum after_recovery = QueryCountSum();
  EXPECT_EQ(after_recovery.count, 30);
  EXPECT_DOUBLE_EQ(after_recovery.sum, 30 * 99.0);
}

// Bugfix 2a (peer path): replicas used to snapshot row validity at seal
// time, so corrections landing after replication were invisible to
// recovery and the overwritten rows resurrected. The replica now shares
// the live validity vector and recovery replays in seal order.
TEST_F(OlapUpsertRecoveryTest, PeerRecoveryDoesNotResurrectOverwrittenRows) {
  ClusterTableOptions options;
  options.num_servers = 2;
  options.replication_factor = 2;
  ASSERT_TRUE(cluster_->CreateTable(FareTable(), "fares", options).ok());
  for (int i = 0; i < 30; ++i) Produce("ride" + std::to_string(i), 10.0, "completed");
  ASSERT_TRUE(cluster_->IngestAll("fares_t").ok());
  ASSERT_TRUE(cluster_->ForceSeal("fares_t").ok());
  // Corrections AFTER the segments were sealed and replicated.
  for (int i = 0; i < 10; ++i) Produce("ride" + std::to_string(i), 99.0, "corrected");
  ASSERT_TRUE(cluster_->IngestAll("fares_t").ok());

  CountSum before = QueryCountSum();
  ASSERT_EQ(before.count, 30);
  ASSERT_DOUBLE_EQ(before.sum, 20 * 10.0 + 10 * 99.0);

  // Kill + recover with the store down: peers are the only source.
  faults_.SetDown("store", true);
  ASSERT_TRUE(cluster_->KillServer("fares_t", 0).ok());
  Result<RecoveryReport> report = cluster_->RecoverServer("fares_t", 0);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report.value().segments_from_peers, 0);
  EXPECT_EQ(report.value().segments_lost, 0);
  faults_.SetDown("store", false);

  CountSum after = QueryCountSum();
  EXPECT_EQ(after.count, 30);
  EXPECT_DOUBLE_EQ(after.sum, 20 * 10.0 + 10 * 99.0);
  // The corrected rows did not come back as duplicates.
  OlapQuery point;
  point.select_columns = {"ride_id", "fare", "status"};
  point.filters = {FilterPredicate::Eq("ride_id", Value("ride3"))};
  Result<OlapResult> lookup = cluster_->Query("fares_t", point);
  ASSERT_TRUE(lookup.ok());
  ASSERT_EQ(lookup.value().rows.size(), 1u);
  EXPECT_DOUBLE_EQ(lookup.value().rows[0][1].AsDouble(), 99.0);
}

// Bugfix 2b (store path): archived blobs used to carry only the raw
// segment, so recovery from the store restored every row as valid and in
// arbitrary order. The archival frame now carries seal seq + validity, and
// FinishRestore replays segments in seal order so later upserts win even
// when the archived validity snapshot predates the correction.
TEST_F(OlapUpsertRecoveryTest, StoreRecoveryReplaysUpsertsInSealOrder) {
  ClusterTableOptions options;
  options.num_servers = 2;
  options.replication_factor = 1;  // no peers: recovery must use the store
  ASSERT_TRUE(cluster_->CreateTable(FareTable(), "fares", options).ok());
  for (int i = 0; i < 30; ++i) Produce("ride" + std::to_string(i), 10.0, "completed");
  ASSERT_TRUE(cluster_->IngestAll("fares_t").ok());
  ASSERT_TRUE(cluster_->ForceSeal("fares_t").ok());
  // Corrections land in LATER segments (sealed + archived as well).
  for (int i = 0; i < 10; ++i) Produce("ride" + std::to_string(i), 99.0, "corrected");
  ASSERT_TRUE(cluster_->IngestAll("fares_t").ok());
  ASSERT_TRUE(cluster_->ForceSeal("fares_t").ok());
  ASSERT_TRUE(cluster_->DrainArchivalQueue("fares_t").ok());

  ASSERT_TRUE(cluster_->KillServer("fares_t", 0).ok());
  Result<RecoveryReport> report = cluster_->RecoverServer("fares_t", 0);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report.value().segments_from_store, 0);
  EXPECT_EQ(report.value().segments_lost, 0);

  CountSum after = QueryCountSum();
  EXPECT_EQ(after.count, 30);
  EXPECT_DOUBLE_EQ(after.sum, 20 * 10.0 + 10 * 99.0);

  // Recovery is idempotent: a second recover restores nothing twice.
  Result<RecoveryReport> again = cluster_->RecoverServer("fares_t", 0);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().segments_from_store, 0);
  EXPECT_EQ(again.value().segments_from_peers, 0);
  CountSum after_again = QueryCountSum();
  EXPECT_EQ(after_again.count, 30);
  EXPECT_DOUBLE_EQ(after_again.sum, 20 * 10.0 + 10 * 99.0);
}

// Bugfix 3: in sync-archival mode the failed-backup retry loop (with real
// backoff and injected store latency) used to run while holding the table's
// exclusive lock, so every query stalled for the whole outage. Now the
// store I/O happens off rw_mu: ingestion halts, queries keep their
// millisecond latencies.
TEST_F(OlapUpsertRecoveryTest, StoreOutageBlocksIngestionButNotQueries) {
  TopicConfig topic;
  topic.num_partitions = 1;
  ASSERT_TRUE(broker_->CreateTopic("rides", topic).ok());
  TableConfig table;
  table.name = "rides_t";
  table.schema = RowSchema({{"ride_id", ValueType::kInt}, {"fare", ValueType::kDouble}});
  table.segment_rows_threshold = 50;
  ClusterTableOptions options;
  options.num_servers = 1;
  options.archival_mode = ArchivalMode::kSyncCentralized;
  ASSERT_TRUE(cluster_->CreateTable(table, "rides", options).ok());

  auto produce_ride = [&](int64_t id) {
    Message m;
    m.key = "k";
    m.value = EncodeRow({Value(id), Value(1.0)});
    m.timestamp = 1;
    ASSERT_TRUE(stream::ProduceOne(broker_.get(), "rides", std::move(m)).ok());
  };
  for (int i = 0; i < 40; ++i) produce_ride(i);
  ASSERT_TRUE(cluster_->IngestAll("rides_t").ok());  // queryable tail, no seal

  // Store hard-down AND slow: every Put attempt eats 100ms of injected
  // latency, so one blocked ingest pump (4 backed-off attempts) spends
  // >= 400ms in store I/O.
  common::FaultRule rule;
  rule.down = true;
  rule.added_latency_ms = 100;
  faults_.SetRule("store.put", rule);
  for (int i = 40; i < 200; ++i) produce_ride(i);

  std::atomic<bool> stop{false};
  std::thread ingester([&] {
    while (!stop.load()) {
      Result<int64_t> n = cluster_->IngestOnce("rides_t");
      if (!n.ok()) break;
    }
  });

  // Let the ingester reach the blocked-archival drain loop, then measure
  // query latency while the store outage is eating its retries.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  OlapQuery query;
  query.aggregations = {OlapAggregation::Count("n")};
  int64_t worst_ms = 0;
  for (int i = 0; i < 10; ++i) {
    auto start = std::chrono::steady_clock::now();
    Result<OlapResult> result = cluster_->Query("rides_t", query);
    auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    ASSERT_TRUE(result.ok());
    worst_ms = std::max<int64_t>(worst_ms, elapsed_ms);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  stop.store(true);
  ingester.join();

  // Ingestion halted at the seal boundary (paper: "all data ingestion came
  // to a halt")...
  Result<int64_t> lag = cluster_->IngestLag("rides_t");
  ASSERT_TRUE(lag.ok());
  EXPECT_GT(lag.value(), 0);
  // ...but no query ever waited anywhere near one 400ms+ blocked drain.
  EXPECT_LT(worst_ms, 250);

  // Store back up: ingestion resumes and fully drains.
  faults_.ClearRule("store.put");
  ASSERT_TRUE(cluster_->IngestAll("rides_t").ok());
  EXPECT_EQ(cluster_->IngestLag("rides_t").value(), 0);
  EXPECT_EQ(cluster_->NumRows("rides_t").value(), 200);
  EXPECT_FALSE(store_->List("segments/rides_t/").empty());
}

}  // namespace
}  // namespace uberrt::olap
