// C6 — Section 4.3.1: the shared-nothing upsert design. Records with the
// same primary key replace earlier versions during real-time ingestion;
// partition-aware routing keeps single-key queries on one server.
//
// Measures upsert ingestion throughput, verifies query integrity under a
// heavy update mix, and shows the routing fan-out win.

#include "bench_util.h"
#include "common/rng.h"
#include "olap/cluster.h"
#include "stream/broker.h"
#include "stream/producer.h"

namespace uberrt {

int Main() {
  bench::Header("C6", "Pinot upsert: correctness, throughput, partition routing",
                "records updated during real-time ingestion; shared-nothing "
                "key->location tracking; subqueries routed to one node");
  constexpr int64_t kKeys = 5'000;
  constexpr int64_t kEvents = 50'000;  // ~10 versions per key

  stream::Broker broker("c1");
  storage::InMemoryObjectStore store;
  stream::TopicConfig topic;
  topic.num_partitions = 8;
  broker.CreateTopic("fares", topic).ok();

  olap::OlapCluster cluster(&broker, &store);
  olap::TableConfig table;
  table.name = "fares_t";
  table.schema = RowSchema({{"ride_id", ValueType::kString},
                            {"fare", ValueType::kDouble},
                            {"version", ValueType::kInt}});
  table.segment_rows_threshold = 4'000;
  table.upsert_enabled = true;
  table.primary_key_column = "ride_id";
  olap::ClusterTableOptions options;
  options.num_servers = 4;
  cluster.CreateTable(table, "fares", options).ok();

  Rng rng(3);
  std::map<std::string, std::pair<double, int64_t>> truth;  // latest per key
  int64_t produce_us = bench::TimeUs([&] {
    for (int64_t i = 0; i < kEvents; ++i) {
      std::string key = "ride" + std::to_string(rng.Uniform(0, kKeys - 1));
      double fare = 5.0 + rng.NextDouble() * 50;
      int64_t version = i;
      stream::Message m;
      m.key = key;  // stream partitioned by primary key
      m.value = EncodeRow({Value(key), Value(fare), Value(version)});
      m.timestamp = 1;
      stream::ProduceOne(&broker, "fares", std::move(m)).ok();
      truth[key] = {fare, version};
    }
  });
  int64_t ingest_us = bench::TimeUs([&] { cluster.IngestAll("fares_t", 10'000).ok(); });
  std::printf("events: %lld over %lld keys (~%.1f versions/key)\n",
              static_cast<long long>(kEvents), static_cast<long long>(kKeys),
              static_cast<double>(kEvents) / kKeys);
  std::printf("produce: %.0f kmsg/s   upsert ingest: %.0f kmsg/s\n",
              kEvents * 1e3 / produce_us, kEvents * 1e3 / ingest_us);

  // Integrity: exactly one live row per key; SUM(fare) equals latest-version
  // truth.
  olap::OlapQuery count_all;
  count_all.aggregations = {olap::OlapAggregation::Count("n"),
                            olap::OlapAggregation::Sum("fare", "s")};
  auto result = cluster.Query("fares_t", count_all).value();
  double expected_sum = 0;
  for (const auto& [key, fare_version] : truth) expected_sum += fare_version.first;
  std::printf("live rows: %lld (expect %lld)   sum(fare) err: %.6f%%\n",
              static_cast<long long>(result.rows[0][0].AsInt()),
              static_cast<long long>(truth.size()),
              100.0 * std::abs(result.rows[0][1].AsDouble() - expected_sum) /
                  expected_sum);

  // Point lookups: partition routing touches one server instead of all 4.
  olap::OlapQuery point;
  point.select_columns = {"ride_id", "fare", "version"};
  point.filters = {olap::FilterPredicate::Eq("ride_id", Value("ride42"))};
  auto lookup = cluster.Query("fares_t", point).value();
  double point_us = bench::MeanUs(50, [&] { cluster.Query("fares_t", point).ok(); });
  std::printf("point lookup: %.1f us, servers_queried=%lld of 4 (routed), "
              "version=%lld (latest=%lld)\n",
              point_us, static_cast<long long>(lookup.stats.servers_queried),
              static_cast<long long>(lookup.rows[0][2].AsInt()),
              static_cast<long long>(truth["ride42"].second));

  // Contrast: same lookup shape on a non-upsert table scatters to all.
  stream::TopicConfig t2;
  t2.num_partitions = 8;
  broker.CreateTopic("fares_plain", t2).ok();
  olap::TableConfig plain = table;
  plain.name = "fares_plain_t";
  plain.upsert_enabled = false;
  cluster.CreateTable(plain, "fares_plain", options).ok();
  auto scattered = cluster.Query("fares_plain_t", point).value();
  std::printf("same query without upsert routing: servers_queried=%lld of 4\n",
              static_cast<long long>(scattered.stats.servers_queried));
  return 0;
}

}  // namespace uberrt

int main() { return uberrt::Main(); }
