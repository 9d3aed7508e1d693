// C1 — Section 4.1.1: "Based on our empirical data, the ideal cluster size
// is less than 150 nodes for optimum performance. With federation, the
// Kafka service can scale horizontally by adding more clusters when a
// cluster is full."
//
// Part 1 measures per-produce cost and modeled aggregate capacity as a
// single cluster grows (coordination cost rises superlinearly with node
// count, so capacity peaks near ~120-150 nodes and declines).
// Part 2 shows federated scaling: topics keep landing as clusters fill, and
// capacity scales with cluster count.

#include <memory>

#include "bench_util.h"
#include "stream/broker.h"
#include "stream/federation.h"
#include "stream/producer.h"

namespace uberrt {

int Main() {
  bench::Header("C1", "Kafka cluster size vs throughput; federation scaling",
                "ideal cluster size < 150 nodes; federation scales horizontally");

  std::printf("%-8s %16s %22s\n", "nodes", "per_produce_us", "cluster_capacity(rel)");
  double best_capacity = 0;
  int32_t best_nodes = 0;
  for (int32_t nodes : {25, 50, 100, 150, 250, 400, 600}) {
    stream::BrokerOptions options;
    options.num_nodes = nodes;
    options.coordination_model_enabled = true;
    stream::Broker broker("c", options);
    stream::TopicConfig config;
    config.num_partitions = 1;
    broker.CreateTopic("t", config).ok();
    constexpr int kMessages = 30'000;
    int64_t us = bench::TimeUs([&] {
      for (int i = 0; i < kMessages; ++i) {
        stream::Message m;
        m.value = "x";
        m.timestamp = 1;
        stream::ProduceOne(&broker, "t", std::move(m)).ok();
      }
    });
    double per_produce = static_cast<double>(us) / kMessages;
    // Aggregate capacity: nodes x per-node produce rate.
    double capacity = nodes / per_produce;
    if (capacity > best_capacity) {
      best_capacity = capacity;
      best_nodes = nodes;
    }
    std::printf("%-8d %16.3f %22.1f\n", nodes, per_produce, capacity);
  }
  std::printf("-> capacity peaks at ~%d nodes (paper: <150)\n", best_nodes);

  // Part 2: federation keeps absorbing topics by adding clusters.
  std::printf("\nfederated scaling (capacity 3 topics/cluster):\n");
  stream::KafkaFederation federation;
  int created = 0, clusters = 0;
  stream::TopicConfig config;
  config.num_partitions = 2;
  for (int i = 0; i < 12; ++i) {
    std::string topic = "topic" + std::to_string(i);
    Status status = federation.CreateTopic(topic, config);
    if (status.code() == StatusCode::kResourceExhausted) {
      ++clusters;
      federation
          .AddCluster(std::make_unique<stream::Broker>("c" + std::to_string(clusters)),
                      3)
          .ok();
      status = federation.CreateTopic(topic, config);
      std::printf("  cluster c%d added when full -> topic %s placed there\n", clusters,
                  topic.c_str());
    }
    if (status.ok()) ++created;
  }
  std::printf("  topics created: %d across %d clusters (transparent to clients)\n",
              created, clusters);
  return 0;
}

}  // namespace uberrt

int main() { return uberrt::Main(); }
