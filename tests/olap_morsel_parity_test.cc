// Morsel-scheduling acceptance suite: (1) the broker's morsel-parallel
// scatter must return results bitwise-identical to the serial path on any
// query (the per-morsel output slots make this true by construction — this
// fuzz guards the construction); (2) zone-map / membership pruning must
// skip segments without ever changing results; (3) the broker result cache
// must serve only fresh entries and invalidate per covered partition. Runs
// in the ASan/TSan concurrency gate.

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common/executor.h"
#include "common/hash.h"
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

class OlapMorselParityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    broker_ = std::make_unique<Broker>("c1");
    store_ = std::make_unique<storage::InMemoryObjectStore>();
    common::ExecutorOptions pool;
    pool.num_threads = 4;
    pool.name = "executor.morsel_test";
    executor_ = std::make_unique<common::Executor>(pool);
    cluster_ = std::make_unique<OlapCluster>(broker_.get(), store_.get(),
                                             executor_.get());
    TopicConfig config;
    config.num_partitions = 8;
    ASSERT_TRUE(broker_->CreateTopic("rides", config).ok());
  }

  void ProduceRide(int64_t id, const std::string& city, double fare, int64_t ts,
                   const std::string& key = "") {
    Message m;
    m.key = key.empty() ? "k" + std::to_string(id % 16) : key;
    m.value = EncodeRow({Value(id), Value(city), Value(fare), Value(ts)});
    m.timestamp = ts;
    ASSERT_TRUE(stream::ProduceOne(broker_.get(), "rides", std::move(m)).ok());
  }

  TableConfig RideTable(const std::string& name = "rides_t") {
    TableConfig config;
    config.name = name;
    config.schema = RideSchema();
    config.time_column = "ts";
    config.segment_rows_threshold = 40;
    config.index_config.inverted_columns = {"city"};
    return config;
  }

  static ClusterTableOptions FourServers() {
    ClusterTableOptions options;
    options.num_servers = 4;
    return options;
  }

  /// Bitwise row fingerprint: EncodeRow is typed and self-delimiting, so
  /// equal fingerprints mean equal row sequences (values AND order).
  static std::string Fingerprint(const OlapResult& result) {
    std::string fp;
    for (const Row& row : result.rows) fp += EncodeRow(row) + "\x1f";
    return fp;
  }

  std::unique_ptr<Broker> broker_;
  std::unique_ptr<storage::InMemoryObjectStore> store_;
  std::unique_ptr<common::Executor> executor_;
  std::unique_ptr<OlapCluster> cluster_;
};

// Randomized parity fuzz: every query runs three ways — morsel-parallel on
// the pool, serial (no executor), and the row-at-a-time scalar oracle — and
// all three must agree on rows; parallel and serial must also agree on
// every execution statistic (same morsels planned, scanned and pruned).
TEST_F(OlapMorselParityTest, ParallelSerialAndScalarAgreeOnRandomQueries) {
  const char* cities[] = {"sf", "nyc", "la", "chi", "sea"};
  // 6 epochs of 100 rows: many sealed segments per partition plus a
  // consuming tail (620 % 40 != 0), disjoint ride_id and ts ranges per
  // epoch so range filters actually prune.
  int64_t id = 0;
  for (int epoch = 0; epoch < 6; ++epoch) {
    for (int i = 0; i < 100; ++i, ++id) {
      ProduceRide(epoch * 1000 + i, cities[(epoch + i) % 5], 5.0 + i % 7,
                  100000 * epoch + i);
    }
  }
  for (int i = 0; i < 20; ++i, ++id) ProduceRide(9000 + i, "sf", 1.0, 700000 + i);
  ASSERT_TRUE(cluster_->CreateTable(RideTable(), "rides", FourServers()).ok());
  ASSERT_TRUE(cluster_->IngestAll("rides_t").ok());

  std::mt19937 rng(42);
  auto pick = [&rng](int n) { return static_cast<int>(rng() % n); };
  int64_t pruned_total = 0;
  for (int q = 0; q < 30; ++q) {
    OlapQuery query;
    switch (pick(3)) {
      case 0:
        query.group_by = {"city"};
        query.aggregations = {OlapAggregation::Count("n"),
                              OlapAggregation::Sum("fare", "s")};
        query.order_by = "n";
        break;
      case 1:
        query.aggregations = {OlapAggregation::Count("n"),
                              OlapAggregation::Min("fare", "lo"),
                              OlapAggregation::Max("fare", "hi"),
                              OlapAggregation::Avg("fare", "avg")};
        break;
      default:
        query.select_columns = {"ride_id", "city", "fare"};
        query.limit = 64;
        break;
    }
    if (pick(2) == 0) {
      query.filters.push_back(FilterPredicate::Eq("city", Value(cities[pick(5)])));
    }
    if (pick(2) == 0) {
      query.filters.push_back(FilterPredicate::Range(
          "ride_id", pick(2) == 0 ? FilterPredicate::Op::kGe : FilterPredicate::Op::kLt,
          Value(int64_t{1000} * pick(7))));
    }
    if (pick(3) == 0) {
      query.filters.push_back(FilterPredicate::Range(
          "ts", FilterPredicate::Op::kGe, Value(int64_t{100000} * pick(7))));
    }

    cluster_->SetExecutor(nullptr);
    Result<OlapResult> serial = cluster_->Query("rides_t", query);
    cluster_->SetExecutor(executor_.get());
    Result<OlapResult> parallel = cluster_->Query("rides_t", query);
    OlapQuery scalar_query = query;
    scalar_query.force_scalar = true;
    Result<OlapResult> scalar = cluster_->Query("rides_t", scalar_query);

    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    ASSERT_TRUE(scalar.ok()) << scalar.status().ToString();
    EXPECT_EQ(Fingerprint(serial.value()), Fingerprint(parallel.value()))
        << "query " << q << ": parallel rows diverged from serial";
    EXPECT_EQ(Fingerprint(serial.value()), Fingerprint(scalar.value()))
        << "query " << q << ": scalar oracle diverged";
    EXPECT_EQ(serial.value().stats.segments_scanned,
              parallel.value().stats.segments_scanned);
    EXPECT_EQ(serial.value().stats.segments_pruned,
              parallel.value().stats.segments_pruned);
    EXPECT_EQ(serial.value().stats.rows_scanned, parallel.value().stats.rows_scanned);
    EXPECT_EQ(serial.value().stats.star_tree_hits,
              parallel.value().stats.star_tree_hits);
    EXPECT_EQ(serial.value().stats.servers_queried,
              parallel.value().stats.servers_queried);
    pruned_total += serial.value().stats.segments_pruned;
  }
  // The epoch-disjoint ranges guarantee the fuzz exercised pruning.
  EXPECT_GT(pruned_total, 0);
}

// Zone maps prune on any filtered column, not just the time column: the
// epochs have disjoint ride_id ranges, so a ride_id range predicate must
// skip the segments of the other epochs while returning the exact answer.
TEST_F(OlapMorselParityTest, ZoneMapsPruneSegmentsOnNonTimeColumns) {
  ASSERT_TRUE(cluster_->CreateTable(RideTable(), "rides", FourServers()).ok());
  // Seal between the epochs so no segment straddles the id ranges.
  for (int i = 0; i < 200; ++i) ProduceRide(i, "sf", 1.0, 1000 + i);
  ASSERT_TRUE(cluster_->IngestAll("rides_t").ok());
  ASSERT_TRUE(cluster_->ForceSeal("rides_t").ok());
  for (int i = 0; i < 200; ++i) ProduceRide(100000 + i, "nyc", 2.0, 2000 + i);
  ASSERT_TRUE(cluster_->IngestAll("rides_t").ok());
  ASSERT_TRUE(cluster_->ForceSeal("rides_t").ok());

  OlapQuery query;
  query.aggregations = {OlapAggregation::Count("n")};
  query.filters = {FilterPredicate::Range("ride_id", FilterPredicate::Op::kGe,
                                          Value(int64_t{100000}))};
  Result<OlapResult> result = cluster_->Query("rides_t", query);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().rows[0][0].AsInt(), 200);
  EXPECT_GT(result.value().stats.segments_pruned, 0);
  EXPECT_EQ(cluster_->metrics()->GetCounter("olap.segments_pruned")->value(),
            result.value().stats.segments_pruned);
}

// Equality lookups for absent keys inside a segment's [min, max] range are
// pruned by the membership filter + exact dictionary probe: a segment of
// even ride_ids must not be scanned for an odd one.
TEST_F(OlapMorselParityTest, MembershipFilterPrunesInRangeMisses) {
  // One stream partition (fixed key), threshold 100: a single sealed
  // segment holding 100 distinct even ride_ids (cardinality >= 64 builds
  // the membership filter).
  TableConfig config = RideTable();
  config.segment_rows_threshold = 100;
  for (int i = 0; i < 100; ++i) ProduceRide(2 * i, "sf", 1.0, 1000 + i, "one-key");
  ASSERT_TRUE(cluster_->CreateTable(config, "rides", FourServers()).ok());
  ASSERT_TRUE(cluster_->IngestAll("rides_t").ok());
  ASSERT_TRUE(cluster_->ForceSeal("rides_t").ok());

  OlapQuery query;
  query.aggregations = {OlapAggregation::Count("n")};
  query.filters = {FilterPredicate::Eq("ride_id", Value(int64_t{51}))};
  Result<OlapResult> result = cluster_->Query("rides_t", query);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().rows[0][0].AsInt(), 0);
  EXPECT_EQ(result.value().stats.segments_pruned, 1);
  EXPECT_EQ(result.value().stats.segments_scanned, 0);

  // Present keys still execute (and agree with ground truth).
  query.filters = {FilterPredicate::Eq("ride_id", Value(int64_t{50}))};
  result = cluster_->Query("rides_t", query);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().rows[0][0].AsInt(), 1);
  EXPECT_EQ(result.value().stats.segments_pruned, 0);
}

TEST_F(OlapMorselParityTest, ResultCacheHitsUntilIngestInvalidates) {
  for (int i = 0; i < 120; ++i) ProduceRide(i, i % 2 == 0 ? "sf" : "nyc", 3.0, 1000 + i);
  ASSERT_TRUE(cluster_->CreateTable(RideTable(), "rides", FourServers()).ok());
  ASSERT_TRUE(cluster_->IngestAll("rides_t").ok());

  OlapQuery query;
  query.use_cache = true;
  query.group_by = {"city"};
  query.aggregations = {OlapAggregation::Count("n")};
  query.order_by = "n";
  Result<OlapResult> first = cluster_->Query("rides_t", query);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.value().stats.from_cache);

  Result<OlapResult> second = cluster_->Query("rides_t", query);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value().stats.from_cache);
  EXPECT_EQ(Fingerprint(first.value()), Fingerprint(second.value()));
  // Filter order must not defeat the canonical key, and an equivalent query
  // submitted with reordered filters is the same cache entry.
  OlapQuery reordered = query;
  reordered.filters = {FilterPredicate::Range("ride_id", FilterPredicate::Op::kGe,
                                              Value(int64_t{0})),
                       FilterPredicate::Eq("city", Value("sf"))};
  OlapQuery swapped = reordered;
  std::swap(swapped.filters[0], swapped.filters[1]);
  Result<OlapResult> warm = cluster_->Query("rides_t", reordered);
  ASSERT_TRUE(warm.ok());
  EXPECT_FALSE(warm.value().stats.from_cache);
  Result<OlapResult> hit = cluster_->Query("rides_t", swapped);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit.value().stats.from_cache);

  // New data invalidates: the next execution recomputes and re-caches.
  for (int i = 0; i < 10; ++i) ProduceRide(1000 + i, "sf", 3.0, 5000 + i);
  ASSERT_TRUE(cluster_->IngestAll("rides_t").ok());
  Result<OlapResult> after = cluster_->Query("rides_t", query);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after.value().stats.from_cache);
  EXPECT_EQ(after.value().rows[0][1].AsInt() + after.value().rows[1][1].AsInt(), 130);

  // Sealing (ForceSeal) also bumps the covered versions: results are
  // unchanged but stats would not be, so the entry must not be served.
  Result<OlapResult> rewarmed = cluster_->Query("rides_t", query);
  ASSERT_TRUE(rewarmed.ok());
  EXPECT_TRUE(rewarmed.value().stats.from_cache);
  ASSERT_TRUE(cluster_->ForceSeal("rides_t").ok());
  Result<OlapResult> resealed = cluster_->Query("rides_t", query);
  ASSERT_TRUE(resealed.ok());
  EXPECT_FALSE(resealed.value().stats.from_cache);

  EXPECT_GT(cluster_->metrics()->GetCounter("olap.result_cache.hits")->value(), 0);
  EXPECT_GT(cluster_->metrics()->GetCounter("olap.result_cache.misses")->value(), 0);
}

// A routed (single-partition) cached query must survive ingestion into
// OTHER partitions — the version fingerprint only covers the partitions the
// query reads — and must still invalidate when its own partition changes.
TEST_F(OlapMorselParityTest, ResultCacheInvalidationIsPartitionScoped) {
  TopicConfig topic;
  topic.num_partitions = 4;
  ASSERT_TRUE(broker_->CreateTopic("fares", topic).ok());
  TableConfig table;
  table.name = "fares_t";
  table.schema = RowSchema({{"ride_id", ValueType::kString},
                            {"fare", ValueType::kDouble}});
  table.segment_rows_threshold = 10;
  table.upsert_enabled = true;
  table.primary_key_column = "ride_id";
  ASSERT_TRUE(cluster_->CreateTable(table, "fares").ok());

  // Two keys on different stream partitions (same hash the broker uses).
  std::string key_a = "ride0";
  std::string key_b;
  for (int i = 1; i < 64 && key_b.empty(); ++i) {
    std::string candidate = "ride" + std::to_string(i);
    if (KeyToPartition(candidate, 4) != KeyToPartition(key_a, 4)) key_b = candidate;
  }
  ASSERT_FALSE(key_b.empty());

  auto produce = [&](const std::string& ride, double fare) {
    Message m;
    m.key = ride;
    m.value = EncodeRow({Value(ride), Value(fare)});
    m.timestamp = 1;
    ASSERT_TRUE(stream::ProduceOne(broker_.get(), "fares", std::move(m)).ok());
  };
  produce(key_a, 10.0);
  produce(key_b, 20.0);
  ASSERT_TRUE(cluster_->IngestAll("fares_t").ok());

  OlapQuery lookup;
  lookup.use_cache = true;
  lookup.select_columns = {"ride_id", "fare"};
  lookup.filters = {FilterPredicate::Eq("ride_id", Value(key_a))};
  ASSERT_TRUE(cluster_->Query("fares_t", lookup).ok());  // warm
  Result<OlapResult> hit = cluster_->Query("fares_t", lookup);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit.value().stats.from_cache);

  // Writing key_b touches a different partition: key_a's entry stays fresh.
  produce(key_b, 21.0);
  ASSERT_TRUE(cluster_->IngestAll("fares_t").ok());
  hit = cluster_->Query("fares_t", lookup);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit.value().stats.from_cache);

  // Writing key_a invalidates, and the recomputed result sees the upsert.
  produce(key_a, 99.0);
  ASSERT_TRUE(cluster_->IngestAll("fares_t").ok());
  Result<OlapResult> fresh = cluster_->Query("fares_t", lookup);
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(fresh.value().stats.from_cache);
  ASSERT_EQ(fresh.value().rows.size(), 1u);
  EXPECT_DOUBLE_EQ(fresh.value().rows[0][1].AsDouble(), 99.0);
}

}  // namespace
}  // namespace uberrt::olap
