#include <gtest/gtest.h>

#include "olap/cluster.h"
#include "sql/engine.h"
#include "storage/archive.h"
#include "stream/broker.h"
#include "stream/producer.h"

namespace uberrt::sql {
namespace {

using olap::ClusterTableOptions;
using olap::OlapCluster;
using olap::TableConfig;
using storage::ArchiveTable;
using storage::InMemoryObjectStore;
using stream::Broker;
using stream::Message;
using stream::TopicConfig;

/// Fixture: a Pinot-like `orders` table (fresh data) + a Hive-like
/// `restaurants` dimension table (archived data) — the classic Section 4.3.2
/// federation target.
class PrestoEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    broker_ = std::make_unique<Broker>("c1");
    store_ = std::make_unique<InMemoryObjectStore>();
    cluster_ = std::make_unique<OlapCluster>(broker_.get(), store_.get());

    TopicConfig topic;
    topic.num_partitions = 2;
    ASSERT_TRUE(broker_->CreateTopic("orders_raw", topic).ok());
    TableConfig table;
    table.name = "orders";
    table.schema = RowSchema({{"order_id", ValueType::kInt},
                              {"restaurant_id", ValueType::kInt},
                              {"total", ValueType::kDouble},
                              {"status", ValueType::kString}});
    table.segment_rows_threshold = 40;
    table.index_config.inverted_columns = {"restaurant_id"};
    ASSERT_TRUE(cluster_->CreateTable(table, "orders_raw").ok());
    for (int i = 0; i < 100; ++i) {
      Message m;
      m.key = std::to_string(i % 5);
      m.value = EncodeRow({Value(static_cast<int64_t>(i)),
                           Value(static_cast<int64_t>(i % 5)),
                           Value(10.0 + i % 4),
                           Value(i % 10 == 0 ? std::string("abandoned")
                                             : std::string("delivered"))});
      m.timestamp = 1;
      ASSERT_TRUE(stream::ProduceOne(broker_.get(), "orders_raw", std::move(m)).ok());
    }
    ASSERT_TRUE(cluster_->IngestAll("orders").ok());

    // Hive-like dimension table.
    restaurants_ = std::make_unique<ArchiveTable>(
        store_.get(), "restaurants",
        RowSchema({{"restaurant_id", ValueType::kInt}, {"name", ValueType::kString},
                   {"city", ValueType::kString}}));
    std::vector<Row> dim;
    const char* cities[] = {"sf", "sf", "nyc", "nyc", "la"};
    for (int64_t r = 0; r < 5; ++r) {
      dim.push_back({Value(r), Value("rest" + std::to_string(r)),
                     Value(std::string(cities[r]))});
    }
    ASSERT_TRUE(restaurants_->AppendBatch("all", dim).ok());

    catalog_.Register("orders", std::make_unique<OlapConnector>(cluster_.get(), "orders"));
    catalog_.Register("restaurants",
                      std::make_unique<ArchiveConnector>(restaurants_.get()));
  }

  std::unique_ptr<Broker> broker_;
  std::unique_ptr<InMemoryObjectStore> store_;
  std::unique_ptr<OlapCluster> cluster_;
  std::unique_ptr<ArchiveTable> restaurants_;
  Catalog catalog_;
};

TEST_F(PrestoEngineTest, SimpleProjectionAndFilter) {
  PrestoEngine engine(&catalog_);
  Result<QueryResult> result = engine.Execute(
      "SELECT order_id, total FROM orders WHERE restaurant_id = 2 LIMIT 100");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().rows.size(), 20u);
  EXPECT_EQ(result.value().schema.FieldIndex("total"), 1);
}

TEST_F(PrestoEngineTest, AggregationWithGroupByOrderLimit) {
  PrestoEngine engine(&catalog_);
  Result<QueryResult> result = engine.Execute(
      "SELECT restaurant_id, COUNT(*) AS n, SUM(total) AS sales FROM orders "
      "WHERE status = 'delivered' GROUP BY restaurant_id ORDER BY sales DESC "
      "LIMIT 3");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().rows.size(), 3u);
  // Descending by sales.
  EXPECT_GE(result.value().rows[0][2].ToNumeric(),
            result.value().rows[1][2].ToNumeric());
  // Restaurant 0 lost its i%10==0 orders to the filter.
  for (const Row& row : result.value().rows) {
    if (row[0].AsInt() == 0) {
      EXPECT_EQ(row[1].AsInt(), 10);
    } else {
      EXPECT_EQ(row[1].AsInt(), 20);
    }
  }
}

TEST_F(PrestoEngineTest, PushdownLevelsAgreeButMoveDifferentAmounts) {
  const std::string sql =
      "SELECT restaurant_id, COUNT(*) AS n FROM orders "
      "WHERE restaurant_id = 1 GROUP BY restaurant_id";
  PrestoEngine none(&catalog_, PushdownLevel::kNone);
  PrestoEngine predicate(&catalog_, PushdownLevel::kPredicate);
  PrestoEngine full(&catalog_, PushdownLevel::kFull);

  Result<QueryResult> r_none = none.Execute(sql);
  Result<QueryResult> r_pred = predicate.Execute(sql);
  Result<QueryResult> r_full = full.Execute(sql);
  ASSERT_TRUE(r_none.ok());
  ASSERT_TRUE(r_pred.ok());
  ASSERT_TRUE(r_full.ok());
  // Identical answers.
  ASSERT_EQ(r_none.value().rows.size(), 1u);
  EXPECT_EQ(r_none.value().rows, r_pred.value().rows);
  EXPECT_EQ(r_none.value().rows, r_full.value().rows);
  EXPECT_EQ(r_none.value().rows[0][1].AsInt(), 20);
  // Data movement strictly shrinks with pushdown.
  EXPECT_EQ(r_none.value().stats.rows_fetched, 100);   // full scan
  EXPECT_EQ(r_pred.value().stats.rows_fetched, 20);    // filtered at source
  EXPECT_EQ(r_full.value().stats.rows_fetched, 1);     // aggregated at source
  EXPECT_FALSE(r_none.value().stats.aggregation_pushed);
  EXPECT_FALSE(r_pred.value().stats.aggregation_pushed);
  EXPECT_TRUE(r_full.value().stats.aggregation_pushed);
}

TEST_F(PrestoEngineTest, JoinPinotWithHiveDimensionTable) {
  PrestoEngine engine(&catalog_);
  Result<QueryResult> result = engine.Execute(
      "SELECT r.city, SUM(o.total) AS sales FROM orders o "
      "JOIN restaurants r ON o.restaurant_id = r.restaurant_id "
      "GROUP BY r.city ORDER BY sales DESC");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().rows.size(), 3u);  // sf, nyc, la
  double total = 0;
  for (const Row& row : result.value().rows) total += row[1].ToNumeric();
  // Every order joined exactly once: sum of all totals.
  double expected = 0;
  for (int i = 0; i < 100; ++i) expected += 10.0 + i % 4;
  EXPECT_DOUBLE_EQ(total, expected);
}

TEST_F(PrestoEngineTest, SubqueryFeedsOuterQuery) {
  PrestoEngine engine(&catalog_);
  Result<QueryResult> result = engine.Execute(
      "SELECT city FROM (SELECT r.city AS city, COUNT(*) AS n FROM orders o "
      "JOIN restaurants r ON o.restaurant_id = r.restaurant_id GROUP BY r.city) t "
      "WHERE n >= 40 ORDER BY city ASC");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // sf: restaurants 0,1 -> 40 orders; nyc: 2,3 -> 40; la: 1 restaurant -> 20.
  ASSERT_EQ(result.value().rows.size(), 2u);
  EXPECT_EQ(result.value().rows[0][0].AsString(), "nyc");
  EXPECT_EQ(result.value().rows[1][0].AsString(), "sf");
}

TEST_F(PrestoEngineTest, HavingFiltersAggregatedRows) {
  PrestoEngine engine(&catalog_, PushdownLevel::kPredicate);
  Result<QueryResult> result = engine.Execute(
      "SELECT status, COUNT(*) AS n FROM orders GROUP BY status HAVING n > 50");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().rows.size(), 1u);
  EXPECT_EQ(result.value().rows[0][0].AsString(), "delivered");
}

TEST_F(PrestoEngineTest, ExpressionsInSelectList) {
  PrestoEngine engine(&catalog_);
  Result<QueryResult> result = engine.Execute(
      "SELECT order_id, total * 2 AS doubled FROM orders WHERE order_id < 3 "
      "ORDER BY order_id ASC");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().rows.size(), 3u);
  EXPECT_DOUBLE_EQ(result.value().rows[0][1].ToNumeric(), 20.0);
}

TEST_F(PrestoEngineTest, ErrorsSurfaceCleanly) {
  PrestoEngine engine(&catalog_);
  EXPECT_FALSE(engine.Execute("SELECT x FROM missing_table").ok());
  EXPECT_FALSE(engine.Execute("SELECT missing_col FROM orders").ok());
  EXPECT_FALSE(engine
                   .Execute("SELECT COUNT(*) FROM orders GROUP BY "
                            "TUMBLE(ts, INTERVAL '1' MINUTE)")
                   .ok());  // streaming windows belong to FlinkSQL
  EXPECT_FALSE(engine.Execute("SELECT status, COUNT(*) FROM orders").ok());
}

TEST_F(PrestoEngineTest, GlobalAggregateOverEmptyMatchIsZero) {
  PrestoEngine engine(&catalog_);
  Result<QueryResult> result =
      engine.Execute("SELECT COUNT(*) AS n FROM orders WHERE restaurant_id = 777");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().rows.size(), 1u);
  EXPECT_EQ(result.value().rows[0][0].AsInt(), 0);
}

}  // namespace
}  // namespace uberrt::sql
