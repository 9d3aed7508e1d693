// C11 — Section 7: backfill architectures. Kappa (replay from Kafka) needs
// "very long data retention in Kafka", which Uber caps at a few days, so
// history beyond retention is simply gone; Kappa+ reads archived data with
// the unchanged streaming logic, with throttling and a widened reorder
// window.

#include <mutex>

#include "bench_util.h"
#include "common/rng.h"
#include "compute/backfill.h"
#include "stream/broker.h"
#include "stream/producer.h"

namespace uberrt {

int Main() {
  bench::Header("C11", "backfill: Kappa (Kafka replay) vs Kappa+ (archive replay)",
                "limited Kafka retention breaks Kappa; Kappa+ runs the same "
                "code over Hive data with minor config changes");
  RowSchema schema({{"key", ValueType::kString},
                    {"v", ValueType::kDouble},
                    {"ts", ValueType::kInt}});
  constexpr int kDays = 7;
  constexpr int kRowsPerDay = 20'000;
  constexpr int kRetainedDays = 2;  // "a few days" of Kafka retention

  // Broker on a simulated clock pinned to "now" so retention is enforced
  // against the logical event timeline.
  TimestampMs now = kDays * 86'400'000LL;
  SimulatedClock clock(now);
  stream::Broker broker("c1", stream::BrokerOptions(), &clock);
  storage::InMemoryObjectStore store;
  stream::TopicConfig topic;
  topic.num_partitions = 4;
  // Retention: everything older than kRetainedDays is truncated.
  topic.retention.max_age_ms = kRetainedDays * 86'400'000LL;
  broker.CreateTopic("events", topic).ok();
  storage::ArchiveTable archive(&store, "events", schema);

  // Seven days of history flow through Kafka and into the archive.
  Rng rng(9);
  std::vector<std::string> partitions;
  for (int day = 0; day < kDays; ++day) {
    std::vector<Row> day_rows;
    for (int i = 0; i < kRowsPerDay; ++i) {
      int64_t ts = day * 86'400'000LL + rng.Uniform(0, 86'399'000);
      Row row{Value("k" + std::to_string(i % 100)), Value(1.0), Value(ts)};
      stream::Message m;
      m.key = row[0].AsString();
      m.value = EncodeRow(row);
      m.timestamp = ts;
      stream::ProduceOne(&broker, "events", std::move(m)).ok();
      day_rows.push_back(std::move(row));
    }
    archive.AppendBatch("day" + std::to_string(day), day_rows).ok();
    partitions.push_back("day" + std::to_string(day));
  }
  // Enforce retention, then measure what a Kappa replay could still read.
  broker.ApplyRetention();
  int64_t total = static_cast<int64_t>(kDays) * kRowsPerDay;
  int64_t replayable =
      compute::KappaReplayableRecords(&broker, "events").value();
  std::printf("history: %d days x %d rows; Kafka retention: %d days\n\n", kDays,
              kRowsPerDay, kRetainedDays);
  std::printf("%-10s %14s %14s %10s\n", "approach", "records_total",
              "reprocessable", "coverage");
  std::printf("%-10s %14lld %14lld %9.1f%%\n", "kappa", static_cast<long long>(total),
              static_cast<long long>(replayable), 100.0 * replayable / total);

  // Kappa+: the same windowed job over all archived days.
  std::mutex mu;
  int64_t windows = 0, counted = 0;
  compute::JobGraph graph("hourly");
  compute::SourceSpec source;
  source.topic = "events";
  source.schema = schema;
  source.time_field = "ts";
  graph.AddSource(source).WindowAggregate("agg", {"key"},
                                          compute::WindowSpec::Tumbling(3'600'000),
                                          {compute::AggregateSpec::Count("n")});
  graph.SinkToCollector([&](const Row& row, TimestampMs) {
    std::lock_guard<std::mutex> lock(mu);
    ++windows;
    counted += row[2].AsInt();
  });
  compute::KappaPlusBackfill backfill(&broker, &store);
  compute::BackfillOptions options;
  options.reorder_slack_ms = 86'400'000;
  int64_t us = bench::TimeUs(
      [&] { backfill.Run(graph, archive, partitions, options).ok(); });
  std::printf("%-10s %14lld %14lld %9.1f%%   (%.0fk rec/s, %lld windows)\n", "kappa+",
              static_cast<long long>(total), static_cast<long long>(counted),
              100.0 * counted / total, total * 1e3 / us,
              static_cast<long long>(windows));
  bench::Note("kappa+ reprocessed every archived record with the identical job "
              "graph; kappa loses everything beyond retention");
  return 0;
}

}  // namespace uberrt

int main() { return uberrt::Main(); }
