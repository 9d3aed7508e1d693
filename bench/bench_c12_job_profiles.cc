// C12 — Section 4.2.1, resource estimation: "a stateless Flink job which
// does not maintain any aggregation windows is CPU bound vs a stream-stream
// join job will almost always be memory bound."
//
// Profiles the three canonical job shapes on identical input volume and
// reports throughput (CPU proxy) and peak keyed-state footprint.

#include "bench_util.h"
#include "compute/job_runner.h"
#include "stream/broker.h"
#include "stream/producer.h"

namespace uberrt {
namespace {

RowSchema EventSchema() {
  return RowSchema({{"key", ValueType::kString},
                    {"v", ValueType::kDouble},
                    {"ts", ValueType::kInt}});
}

void ProduceEvents(stream::Broker* broker, const std::string& topic, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    stream::Message m;
    std::string key = "k" + std::to_string(i % 200);
    m.key = key;
    m.value = EncodeRow({Value(key), Value(1.0), Value(i * 10)});
    m.timestamp = i * 10;
    stream::ProduceOne(broker, topic, std::move(m)).ok();
  }
}

struct Profile {
  double krecords_per_sec = 0;
  int64_t peak_state_bytes = 0;
};

Profile RunJob(compute::JobGraph graph, stream::Broker* broker,
               storage::ObjectStore* store, int64_t records) {
  graph.SinkToCollector([](const Row&, TimestampMs) {});
  compute::JobRunner runner(graph, broker, store);
  runner.Start().ok();
  int64_t us = bench::TimeUs([&] {
    runner.RequestFinish();
    runner.AwaitTermination(120'000).ok();
  });
  Profile profile;
  profile.krecords_per_sec = records * 1e3 / static_cast<double>(us);
  profile.peak_state_bytes = runner.PeakStateBytes();
  return profile;
}

}  // namespace

int Main() {
  bench::Header("C12", "FlinkSQL job classes: CPU-bound vs memory-bound",
                "stateless jobs are CPU bound; stream-stream joins are memory "
                "bound (resource estimation heuristic)");
  constexpr int64_t kRecords = 60'000;
  storage::InMemoryObjectStore store;
  std::printf("%-24s %16s %18s %s\n", "job shape", "krecords/s", "peak_state_bytes",
              "bound by");

  {  // Stateless: map + filter.
    stream::Broker broker("c");
    stream::TopicConfig config;
    config.num_partitions = 4;
    broker.CreateTopic("in", config).ok();
    ProduceEvents(&broker, "in", kRecords);
    compute::JobGraph graph("stateless");
    compute::SourceSpec source;
    source.topic = "in";
    source.schema = EventSchema();
    source.time_field = "ts";
    graph.AddSource(source)
        .Filter("f", [](const Row& r) { return r[1].ToNumeric() > 0; })
        .Map("m",
             [](const Row& r) {
               return Row{r[0], Value(r[1].ToNumeric() * 1.1), r[2]};
             },
             EventSchema());
    Profile p = RunJob(graph, &broker, &store, kRecords);
    std::printf("%-24s %16.0f %18lld %s\n", "stateless (map+filter)",
                p.krecords_per_sec, static_cast<long long>(p.peak_state_bytes), "CPU");
  }
  {  // Windowed aggregation: modest state.
    stream::Broker broker("c");
    stream::TopicConfig config;
    config.num_partitions = 4;
    broker.CreateTopic("in", config).ok();
    ProduceEvents(&broker, "in", kRecords);
    compute::JobGraph graph("windowed");
    compute::SourceSpec source;
    source.topic = "in";
    source.schema = EventSchema();
    source.time_field = "ts";
    graph.AddSource(source).WindowAggregate(
        "agg", {"key"}, compute::WindowSpec::Tumbling(60'000),
        {compute::AggregateSpec::Count("n"), compute::AggregateSpec::Sum("v", "s")});
    Profile p = RunJob(graph, &broker, &store, kRecords);
    std::printf("%-24s %16.0f %18lld %s\n", "window aggregate",
                p.krecords_per_sec, static_cast<long long>(p.peak_state_bytes),
                "CPU+state");
  }
  {  // Stream-stream join: buffers raw rows per window -> memory bound.
    stream::Broker broker("c");
    stream::TopicConfig config;
    config.num_partitions = 4;
    broker.CreateTopic("left", config).ok();
    broker.CreateTopic("right", config).ok();
    ProduceEvents(&broker, "left", kRecords / 2);
    ProduceEvents(&broker, "right", kRecords / 2);
    compute::JobGraph graph("join");
    compute::SourceSpec left;
    left.topic = "left";
    left.schema = EventSchema();
    left.time_field = "ts";
    compute::SourceSpec right = left;
    right.topic = "right";
    graph.AddSource(left).AddSource(right);
    graph.WindowJoin("join", {"key"}, compute::WindowSpec::Tumbling(60'000));
    Profile p = RunJob(graph, &broker, &store, kRecords);
    std::printf("%-24s %16.0f %18lld %s\n", "stream-stream join",
                p.krecords_per_sec, static_cast<long long>(p.peak_state_bytes),
                "MEMORY");
  }
  bench::Note("the job manager uses exactly these signals (lag + state bytes) "
              "for its rule-based scaling decisions");
  return 0;
}

}  // namespace uberrt

int main() { return uberrt::Main(); }
