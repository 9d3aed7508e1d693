#include <gtest/gtest.h>

#include <map>

#include "common/fault_injector.h"
#include "olap/baselines.h"
#include "olap/cluster.h"
#include "stream/broker.h"

namespace uberrt::olap {
namespace {

using stream::AckMode;
using stream::Broker;
using stream::Message;
using stream::TopicConfig;

RowSchema RideSchema() {
  return RowSchema({{"ride_id", ValueType::kInt},
                    {"city", ValueType::kString},
                    {"fare", ValueType::kDouble},
                    {"status", ValueType::kString},
                    {"ts", ValueType::kInt}});
}

class OlapClusterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    broker_ = std::make_unique<Broker>("c1");
    store_ = std::make_unique<storage::InMemoryObjectStore>();
    store_->SetFaultInjector(&faults_);
    cluster_ = std::make_unique<OlapCluster>(broker_.get(), store_.get());
    TopicConfig config;
    config.num_partitions = 4;
    ASSERT_TRUE(broker_->CreateTopic("rides", config).ok());
  }

  void ProduceRide(int64_t id, const std::string& city, double fare,
                   const std::string& status = "completed", int64_t ts = 1000,
                   const std::string& key = "") {
    Message m;
    m.key = key.empty() ? city : key;
    m.value = EncodeRow({Value(id), Value(city), Value(fare), Value(status), Value(ts)});
    m.timestamp = ts;
    ASSERT_TRUE(broker_->Produce("rides", std::move(m)).ok());
  }

  TableConfig RideTable(const std::string& name = "rides_t") {
    TableConfig config;
    config.name = name;
    config.schema = RideSchema();
    config.time_column = "ts";
    config.segment_rows_threshold = 50;
    config.index_config.inverted_columns = {"city"};
    return config;
  }

  common::FaultInjector faults_;
  std::unique_ptr<Broker> broker_;
  std::unique_ptr<storage::InMemoryObjectStore> store_;
  std::unique_ptr<OlapCluster> cluster_;
};

TEST_F(OlapClusterTest, IngestsAndAnswersGroupBy) {
  for (int i = 0; i < 200; ++i) {
    ProduceRide(i, i % 2 == 0 ? "sf" : "nyc", 10.0 + i % 5);
  }
  ASSERT_TRUE(cluster_->CreateTable(RideTable(), "rides").ok());
  ASSERT_TRUE(cluster_->IngestAll("rides_t").ok());
  EXPECT_EQ(cluster_->NumRows("rides_t").value(), 200);
  EXPECT_EQ(cluster_->IngestLag("rides_t").value(), 0);

  OlapQuery query;
  query.group_by = {"city"};
  query.aggregations = {OlapAggregation::Count("rides"),
                        OlapAggregation::Avg("fare", "avg_fare")};
  query.order_by = "rides";
  Result<OlapResult> result = cluster_->Query("rides_t", query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().rows.size(), 2u);
  EXPECT_EQ(result.value().rows[0][1].AsInt(), 100);
  EXPECT_EQ(result.value().rows[1][1].AsInt(), 100);
  // Sealing happened (threshold 50, 200 rows over 4 partitions).
  EXPECT_GT(result.value().stats.segments_scanned, 0);
}

TEST_F(OlapClusterTest, ScatterGatherMergesAcrossServersAndBuffer) {
  // 75 rows per city: crosses one seal boundary, leaving a consuming tail.
  for (int i = 0; i < 150; ++i) ProduceRide(i, i % 2 == 0 ? "sf" : "nyc", 1.0);
  ASSERT_TRUE(cluster_->CreateTable(RideTable(), "rides").ok());
  ASSERT_TRUE(cluster_->IngestAll("rides_t").ok());
  OlapQuery query;
  query.aggregations = {OlapAggregation::Count("n"), OlapAggregation::Sum("fare", "s")};
  Result<OlapResult> result = cluster_->Query("rides_t", query);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().rows.size(), 1u);
  EXPECT_EQ(result.value().rows[0][0].AsInt(), 150);
  EXPECT_DOUBLE_EQ(result.value().rows[0][1].AsDouble(), 150.0);
  EXPECT_EQ(result.value().stats.servers_queried, 2);
}

TEST_F(OlapClusterTest, VectorizedEngineCountersSurfaceOnQueryPath) {
  for (int i = 0; i < 200; ++i) ProduceRide(i, i % 2 == 0 ? "sf" : "nyc", 2.0);
  ASSERT_TRUE(cluster_->CreateTable(RideTable(), "rides").ok());
  ASSERT_TRUE(cluster_->IngestAll("rides_t").ok());
  // Threshold sealing already produced segments; flush any consuming tail so
  // every row is served by the vectorized engine.
  ASSERT_TRUE(cluster_->ForceSeal("rides_t").ok());

  OlapQuery query;
  query.aggregations = {OlapAggregation::Count("n")};
  query.filters = {FilterPredicate::Eq("city", Value("sf"))};
  Result<OlapResult> result = cluster_->Query("rides_t", query);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().rows[0][0].AsInt(), 100);
  // Per-query stats report vectorized activity: the inverted-index filter
  // ran as bitmap kernels and the aggregate phase ran in row batches.
  EXPECT_GT(result.value().stats.exec_batches, 0);
  EXPECT_GT(result.value().stats.bitmap_words, 0);
  // ...and the gather mirrors them into the cluster counters.
  EXPECT_EQ(cluster_->metrics()->GetCounter("olap.exec.batches")->value(),
            result.value().stats.exec_batches);
  EXPECT_EQ(cluster_->metrics()->GetCounter("olap.exec.bitmap_words")->value(),
            result.value().stats.bitmap_words);

  // The scalar oracle bypasses the vectorized engine entirely.
  query.force_scalar = true;
  Result<OlapResult> scalar = cluster_->Query("rides_t", query);
  ASSERT_TRUE(scalar.ok());
  EXPECT_EQ(scalar.value().rows, result.value().rows);
  EXPECT_EQ(scalar.value().stats.exec_batches, 0);
  EXPECT_EQ(scalar.value().stats.bitmap_words, 0);
}

TEST_F(OlapClusterTest, OrderByAndLimitAppliedAfterMerge) {
  for (int i = 0; i < 100; ++i) {
    ProduceRide(i, "city" + std::to_string(i % 10), static_cast<double>(i % 10));
  }
  ASSERT_TRUE(cluster_->CreateTable(RideTable(), "rides").ok());
  ASSERT_TRUE(cluster_->IngestAll("rides_t").ok());
  OlapQuery query;
  query.group_by = {"city"};
  query.aggregations = {OlapAggregation::Sum("fare", "total")};
  query.order_by = "total";
  query.order_desc = true;
  query.limit = 3;
  Result<OlapResult> result = cluster_->Query("rides_t", query);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().rows.size(), 3u);
  EXPECT_EQ(result.value().rows[0][0].AsString(), "city9");
  EXPECT_DOUBLE_EQ(result.value().rows[0][1].AsDouble(), 90.0);
  EXPECT_GE(result.value().rows[0][1].AsDouble(), result.value().rows[1][1].AsDouble());
}

TEST_F(OlapClusterTest, TimeBoundaryPruningSkipsSegments) {
  // Two time epochs in separate segments.
  for (int i = 0; i < 50; ++i) ProduceRide(i, "sf", 1.0, "completed", 1000 + i, "sf");
  for (int i = 0; i < 50; ++i) ProduceRide(i, "sf", 1.0, "completed", 100000 + i, "sf");
  TableConfig config = RideTable();
  config.segment_rows_threshold = 50;
  ASSERT_TRUE(cluster_->CreateTable(config, "rides").ok());
  ASSERT_TRUE(cluster_->IngestAll("rides_t").ok());

  OlapQuery recent;
  recent.aggregations = {OlapAggregation::Count("n")};
  recent.filters = {FilterPredicate::Range("ts", FilterPredicate::Op::kGe,
                                           Value(int64_t{100000}))};
  Result<OlapResult> all_segments = cluster_->Query("rides_t", recent);
  ASSERT_TRUE(all_segments.ok());
  EXPECT_EQ(all_segments.value().rows[0][0].AsInt(), 50);
  // Old segment pruned by its max_time: only 1 sealed segment scanned (+
  // buffer rows if any).
  EXPECT_LE(all_segments.value().stats.segments_scanned, 1);
}

TEST_F(OlapClusterTest, UpsertKeepsLatestVersionOnly) {
  TopicConfig config;
  config.num_partitions = 4;
  ASSERT_TRUE(broker_->CreateTopic("fares", config).ok());
  TableConfig table;
  table.name = "fares_t";
  table.schema = RowSchema({{"ride_id", ValueType::kString},
                            {"fare", ValueType::kDouble},
                            {"status", ValueType::kString}});
  table.segment_rows_threshold = 10;
  table.upsert_enabled = true;
  table.primary_key_column = "ride_id";
  ASSERT_TRUE(cluster_->CreateTable(table, "fares").ok());

  auto produce = [&](const std::string& ride, double fare, const std::string& status) {
    Message m;
    m.key = ride;  // stream partitioned by primary key
    m.value = EncodeRow({Value(ride), Value(fare), Value(status)});
    m.timestamp = 1;
    ASSERT_TRUE(broker_->Produce("fares", std::move(m)).ok());
  };
  // 30 rides, then correct fares for 10 of them (the paper's
  // "correcting a ride fare" scenario). Crosses seal boundaries.
  for (int i = 0; i < 30; ++i) produce("ride" + std::to_string(i), 10.0, "completed");
  ASSERT_TRUE(cluster_->IngestAll("fares_t").ok());
  for (int i = 0; i < 10; ++i) produce("ride" + std::to_string(i), 99.0, "corrected");
  ASSERT_TRUE(cluster_->IngestAll("fares_t").ok());

  OlapQuery query;
  query.aggregations = {OlapAggregation::Count("n"), OlapAggregation::Sum("fare", "s")};
  Result<OlapResult> result = cluster_->Query("fares_t", query);
  ASSERT_TRUE(result.ok());
  // Exactly one live row per key.
  EXPECT_EQ(result.value().rows[0][0].AsInt(), 30);
  EXPECT_DOUBLE_EQ(result.value().rows[0][1].AsDouble(), 20 * 10.0 + 10 * 99.0);

  // Point lookup returns only the corrected version...
  OlapQuery point;
  point.select_columns = {"ride_id", "fare", "status"};
  point.filters = {FilterPredicate::Eq("ride_id", Value("ride3"))};
  Result<OlapResult> lookup = cluster_->Query("fares_t", point);
  ASSERT_TRUE(lookup.ok());
  ASSERT_EQ(lookup.value().rows.size(), 1u);
  EXPECT_DOUBLE_EQ(lookup.value().rows[0][1].AsDouble(), 99.0);
  EXPECT_EQ(lookup.value().rows[0][2].AsString(), "corrected");
  // ...and partition-aware routing queried a single server (Section 4.3.1).
  EXPECT_EQ(lookup.value().stats.servers_queried, 1);
}

TEST_F(OlapClusterTest, UpsertRejectsSortedColumnAndStarTree) {
  TableConfig table = RideTable("bad");
  table.upsert_enabled = true;
  table.primary_key_column = "ride_id";
  table.index_config.sorted_column = "city";
  EXPECT_FALSE(cluster_->CreateTable(table, "rides").ok());
  table.index_config.sorted_column.clear();
  table.index_config.star_tree_dimensions = {"city"};
  EXPECT_FALSE(cluster_->CreateTable(table, "rides").ok());
}

TEST_F(OlapClusterTest, SyncArchivalHaltsIngestionDuringStoreOutage) {
  for (int i = 0; i < 400; ++i) ProduceRide(i, "sf", 1.0, "completed", 1000, "sf");
  TableConfig config = RideTable();
  ClusterTableOptions options;
  options.archival_mode = ArchivalMode::kSyncCentralized;
  ASSERT_TRUE(cluster_->CreateTable(config, "rides", options).ok());
  faults_.SetDown("store", true);
  for (int i = 0; i < 20; ++i) cluster_->IngestOnce("rides_t").ok();
  // Ingestion halted at the first seal: lag remains.
  EXPECT_GT(cluster_->IngestLag("rides_t").value(), 0);
  // Store recovers -> ingestion resumes and archives.
  faults_.SetDown("store", false);
  ASSERT_TRUE(cluster_->IngestAll("rides_t").ok());
  EXPECT_EQ(cluster_->IngestLag("rides_t").value(), 0);
  EXPECT_FALSE(store_->List("segments/rides_t/").empty());
}

TEST_F(OlapClusterTest, AsyncP2PKeepsIngestingDuringStoreOutage) {
  for (int i = 0; i < 400; ++i) ProduceRide(i, "sf", 1.0, "completed", 1000, "sf");
  TableConfig config = RideTable();
  ClusterTableOptions options;
  options.archival_mode = ArchivalMode::kAsyncPeerToPeer;
  ASSERT_TRUE(cluster_->CreateTable(config, "rides", options).ok());
  faults_.SetDown("store", true);
  ASSERT_TRUE(cluster_->IngestAll("rides_t").ok());
  // Fully ingested despite the outage; archival queued.
  EXPECT_EQ(cluster_->IngestLag("rides_t").value(), 0);
  EXPECT_GT(cluster_->ArchivalQueueDepth("rides_t"), 0);
  // Store back: queue drains (counting the earlier failures as retries).
  faults_.SetDown("store", false);
  ASSERT_TRUE(cluster_->DrainArchivalQueue("rides_t").ok());
  EXPECT_EQ(cluster_->ArchivalQueueDepth("rides_t"), 0);
}

// One IngestOnce drains the backlog it finds, in rounds of ≤1024 messages
// and ≤1 seal per partition, crossing many seals in one call.
TEST_F(OlapClusterTest, IngestOnceDrainsBacklogAcrossSeals) {
  const int kRows = 16000;
  for (int i = 0; i < kRows; ++i) {
    ProduceRide(i, i % 2 ? "sf" : "nyc", 1.0, "completed", 1000, std::to_string(i));
  }
  int64_t expected_segments = 0;
  for (int32_t p = 0; p < 4; ++p) {
    const int64_t end = broker_->EndOffset("rides", p).value();
    ASSERT_GT(end, 3 * 1024) << "partition " << p;
    expected_segments += end / 1000;
  }
  TableConfig config = RideTable();
  config.segment_rows_threshold = 1000;
  ASSERT_TRUE(cluster_->CreateTable(config, "rides").ok());
  Result<int64_t> n = cluster_->IngestOnce("rides_t");
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(n.value(), kRows);
  EXPECT_EQ(cluster_->IngestLag("rides_t").value(), 0);
  EXPECT_EQ(cluster_->NumRows("rides_t").value(), kRows);
  // Async mode queues every seal for archival: several per partition.
  EXPECT_EQ(cluster_->ArchivalQueueDepth("rides_t"), expected_segments);
  EXPECT_EQ(cluster_->metrics()->GetGauge("olap.rides_t.ingest_lag")->value(), 0);
}

TEST_F(OlapClusterTest, IngestOnceCapStopsEachPartitionAtMaxPerPartition) {
  for (int i = 0; i < 2000; ++i) {
    ProduceRide(i, "sf", 1.0, "completed", 1000, std::to_string(i));
  }
  ASSERT_TRUE(cluster_->CreateTable(RideTable(), "rides").ok());
  Result<int64_t> n = cluster_->IngestOnce("rides_t", 64);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(n.value(), 4 * 64);
  EXPECT_EQ(cluster_->NumRows("rides_t").value(), 4 * 64);
  const int64_t lag = cluster_->IngestLag("rides_t").value();
  EXPECT_EQ(lag, 2000 - 4 * 64);
  // The gauge publishes the backlog left against the end offsets read.
  EXPECT_EQ(cluster_->metrics()->GetGauge("olap.rides_t.ingest_lag")->value(), lag);
}

TEST_F(OlapClusterTest, IngestOnceSkipsCorruptRunAndDrainsToSnapshot) {
  // One partition (one key): 100 rows, 3000 undecodable messages — rounds
  // that advance the offset but ingest no row — then 100 more rows.
  for (int i = 0; i < 100; ++i) ProduceRide(i, "sf", 1.0, "completed", 1000, "sf");
  for (int i = 0; i < 3000; ++i) {
    Message m;
    m.key = "sf";
    m.value = "\xff\xff not a row";
    ASSERT_TRUE(broker_->Produce("rides", std::move(m)).ok());
  }
  for (int i = 100; i < 200; ++i) ProduceRide(i, "sf", 1.0, "completed", 1000, "sf");
  TableConfig config = RideTable();
  config.segment_rows_threshold = 1000;
  ASSERT_TRUE(cluster_->CreateTable(config, "rides").ok());
  Result<int64_t> n = cluster_->IngestOnce("rides_t");
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(n.value(), 200);
  EXPECT_EQ(cluster_->NumRows("rides_t").value(), 200);
  EXPECT_EQ(cluster_->IngestLag("rides_t").value(), 0);
  EXPECT_EQ(cluster_->metrics()->GetCounter("olap.rides_t.decode_errors")->value(), 3000);
}

TEST_F(OlapClusterTest, SyncArchivalDrainHaltsAtSealThresholdWhenStoreDown) {
  for (int i = 0; i < 400; ++i) ProduceRide(i, "sf", 1.0, "completed", 1000, "sf");
  ClusterTableOptions options;
  options.archival_mode = ArchivalMode::kSyncCentralized;
  ASSERT_TRUE(cluster_->CreateTable(RideTable(), "rides", options).ok());
  Counter* blocked = cluster_->metrics()->GetCounter("olap.rides_t.ingestion_blocked");
  faults_.SetDown("store", true);
  ASSERT_TRUE(cluster_->IngestOnce("rides_t").ok());
  // Halted at the first seal (threshold 50); the sealed segment is kept.
  EXPECT_EQ(cluster_->NumRows("rides_t").value(), 50);
  EXPECT_EQ(cluster_->IngestLag("rides_t").value(), 350);
  EXPECT_EQ(blocked->value(), 1);
  // Store back: one call archives a seal between rounds and drains it all.
  faults_.SetDown("store", false);
  ASSERT_TRUE(cluster_->IngestOnce("rides_t").ok());
  EXPECT_EQ(cluster_->IngestLag("rides_t").value(), 0);
  EXPECT_EQ(cluster_->NumRows("rides_t").value(), 400);
  EXPECT_EQ(cluster_->ArchivalQueueDepth("rides_t"), 0);
  EXPECT_EQ(store_->List("segments/rides_t/").size(), 8u);
  EXPECT_EQ(blocked->value(), 1);
}

TEST_F(OlapClusterTest, PeerToPeerRecoveryRestoresKilledServer) {
  for (int i = 0; i < 300; ++i) ProduceRide(i, i % 2 ? "sf" : "nyc", 2.0);
  ClusterTableOptions options;
  options.archival_mode = ArchivalMode::kAsyncPeerToPeer;
  options.replication_factor = 2;
  ASSERT_TRUE(cluster_->CreateTable(RideTable(), "rides", options).ok());
  ASSERT_TRUE(cluster_->IngestAll("rides_t").ok());
  int64_t rows_before = cluster_->NumRows("rides_t").value();

  // Kill server 0 while the archival store is down: only peers can help.
  faults_.SetDown("store", true);
  ASSERT_TRUE(cluster_->KillServer("rides_t", 0).ok());
  EXPECT_LT(cluster_->NumRows("rides_t").value(), rows_before);
  Result<RecoveryReport> report = cluster_->RecoverServer("rides_t", 0);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report.value().segments_from_peers, 0);
  EXPECT_EQ(report.value().segments_lost, 0);
  EXPECT_EQ(cluster_->NumRows("rides_t").value(), rows_before);
  faults_.SetDown("store", false);
}

TEST(EsLikeStoreTest, QueryParityWithOlapSemantics) {
  EsLikeStore es(RideSchema());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(es.Ingest({Value(static_cast<int64_t>(i)),
                           Value(i % 2 == 0 ? std::string("sf") : std::string("nyc")),
                           Value(10.0 + i % 5),
                           Value(std::string("completed")),
                           Value(static_cast<int64_t>(1000 + i))})
                    .ok());
  }
  OlapQuery query;
  query.group_by = {"city"};
  query.aggregations = {OlapAggregation::Count("n"), OlapAggregation::Avg("fare", "f")};
  Result<OlapResult> result = es.Query(query);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().rows.size(), 2u);
  EXPECT_EQ(result.value().rows[0][1].AsInt(), 50);
  // Range filter.
  OlapQuery range;
  range.aggregations = {OlapAggregation::Count("n")};
  range.filters = {FilterPredicate::Range("ts", FilterPredicate::Op::kGe,
                                          Value(int64_t{1090}))};
  EXPECT_EQ(es.Query(range).value().rows[0][0].AsInt(), 10);
}

TEST(EsLikeStoreTest, FootprintExceedsColumnarSegment) {
  RowSchema schema = RideSchema();
  EsLikeStore es(schema);
  std::vector<Row> rows;
  for (int i = 0; i < 2000; ++i) {
    Row row{Value(static_cast<int64_t>(i)),
            Value("city" + std::to_string(i % 20)),
            Value(10.0 + i % 7),
            Value(i % 3 ? std::string("completed") : std::string("canceled")),
            Value(static_cast<int64_t>(1000 + i))};
    es.Ingest(row).ok();
    rows.push_back(std::move(row));
  }
  Result<std::shared_ptr<Segment>> pinot = Segment::Build("s", schema, std::move(rows), {});
  ASSERT_TRUE(pinot.ok());
  // The Section 4.3 footprint ordering: ES-like memory and disk are larger.
  EXPECT_GT(es.MemoryBytes(), pinot.value()->MemoryBytes());
  EXPECT_GT(es.DiskBytes(), pinot.value()->DiskBytes());
}

// MergeAndFinalize emits groups in the order of their typed key encoding
// (the order an ordered map over EncodeRow bytes gives, whatever the input
// order) and folds each group's partials in input order.
TEST(MergeAndFinalizeTest, EncodedKeyOrderAndInputOrderFold) {
  RowSchema schema({{"k", ValueType::kNull}, {"v", ValueType::kDouble}});
  OlapQuery query;
  query.group_by = {"k"};
  query.aggregations = {OlapAggregation::Sum("v", "s"), OlapAggregation::Count("n")};
  auto partial = [](const Value& key, double v) {
    Row row{key};
    AggAccumulator acc;
    acc.count = 1;
    acc.sum = v;
    acc.min = v;
    acc.max = v;
    AppendAccumulator(&row, acc);  // SUM(v)
    AppendAccumulator(&row, acc);  // COUNT
    return row;
  };
  // Keys that compare equal as values but differ in type, plus an int whose
  // little-endian bytes sort before 1's; fed in reverse of the expected order.
  const std::vector<Value> keys = {Value(true),         Value(false),  Value("1"),
                                   Value(1.0),          Value(int64_t{256}),
                                   Value(int64_t{1}),   Value::Null()};
  // Per key, partial sums 1e16, 1, -1e16 fold to 0 in this order; keys at
  // odd positions get 1e16, -1e16, 1, which folds to 1. Any reordering of a
  // group's partials changes one of the two.
  std::vector<Row> partials;
  for (int round = 0; round < 3; ++round) {
    for (size_t i = 0; i < keys.size(); ++i) {
      static const double kEven[] = {1e16, 1, -1e16};
      static const double kOdd[] = {1e16, -1e16, 1};
      partials.push_back(partial(keys[i], (i % 2 == 0 ? kEven : kOdd)[round]));
    }
  }
  Result<OlapResult> merged = MergeAndFinalize(query, schema, partials);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  const std::vector<Row>& rows = merged.value().rows;
  ASSERT_EQ(rows.size(), keys.size());

  std::map<std::string, size_t> by_encoding;  // encoded key -> index in keys
  for (size_t i = 0; i < keys.size(); ++i) by_encoding[EncodeRow({keys[i]})] = i;
  size_t r = 0;
  for (const auto& [encoded, i] : by_encoding) {
    SCOPED_TRACE("key " + keys[i].ToString());
    EXPECT_EQ(EncodeRow({rows[r][0]}), encoded);
    EXPECT_EQ(rows[r][1].AsDouble(), i % 2 == 0 ? 0.0 : 1.0);
    EXPECT_EQ(rows[r][2].AsInt(), 3);
    ++r;
  }
  // By type tag: NULL, int, double, string, bool.
  EXPECT_TRUE(rows[0][0].is_null());
  EXPECT_EQ(rows[1][0].type(), ValueType::kInt);
  EXPECT_EQ(rows[2][0].type(), ValueType::kInt);
  EXPECT_EQ(rows[3][0].type(), ValueType::kDouble);
  EXPECT_EQ(rows[4][0].type(), ValueType::kString);
  EXPECT_EQ(rows[5][0], Value(false));
  EXPECT_EQ(rows[6][0], Value(true));
  // Little-endian bytes, not numeric order: 256 (00 01 ..) before 1 (01 00 ..).
  EXPECT_EQ(rows[1][0], Value(int64_t{256}));
  EXPECT_EQ(rows[2][0], Value(int64_t{1}));
}

TEST(MergeAndFinalizeTest, GlobalAggregateOverNoRowsIsOneZeroRow) {
  RowSchema schema({{"v", ValueType::kDouble}});
  OlapQuery query;
  query.aggregations = {OlapAggregation::Count("n"), OlapAggregation::Sum("v", "s")};
  Result<OlapResult> merged = MergeAndFinalize(query, schema, {});
  ASSERT_TRUE(merged.ok());
  ASSERT_EQ(merged.value().rows.size(), 1u);
  EXPECT_EQ(merged.value().rows[0], (Row{Value(int64_t{0}), Value(0.0)}));
}

}  // namespace
}  // namespace uberrt::olap
