#ifndef UBERRT_STREAM_FEDERATION_H_
#define UBERRT_STREAM_FEDERATION_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "stream/broker.h"
#include "stream/message_bus.h"

namespace uberrt::stream {

/// Federated "logical cluster" over multiple physical Kafka clusters
/// (Section 4.1.1 of the paper). A central metadata server maps each topic
/// to its hosting physical cluster and transparently routes client requests,
/// so producers/consumers never know the physical placement. Federation
/// provides:
///  - horizontal scaling: when every cluster is at capacity, add another;
///    new topics land on the least-loaded cluster with spare capacity;
///  - single-cluster failure tolerance: topics on a dead cluster can be
///    failed over to a healthy one (freshly provisioned; history recovery is
///    the job of cross-region replication);
///  - live topic migration between clusters without consumer restarts:
///    data is copied preserving offsets, then the routing entry flips.
///
/// Group coordination and committed offsets live at the federation
/// (metadata-server) level, so they survive topic migration and failover.
class KafkaFederation : public MessageBus {
 public:
  KafkaFederation() = default;

  /// Registers a physical cluster. `topic_capacity` is the maximum number of
  /// topics this cluster may host (the paper's "a cluster is full").
  /// The federation takes ownership.
  Status AddCluster(std::unique_ptr<Broker> cluster, int32_t topic_capacity);

  /// Direct access to a physical cluster (for failure injection in tests).
  /// Returns an owning reference so the caller can never observe a dangling
  /// broker, mirroring the Broker topic-lifetime rule.
  Result<std::shared_ptr<Broker>> GetCluster(const std::string& name) const;
  std::vector<std::string> ListClusters() const;

  /// Name of the physical cluster currently hosting a topic.
  Result<std::string> HostingCluster(const std::string& topic) const;

  /// Copies the topic's data to `target_cluster` preserving offsets, then
  /// atomically re-routes. Live consumers continue without restart. Data
  /// moves a fetch chunk at a time, fetched frames re-appended verbatim as
  /// one batch, so batch-header overhead (and with it what size-based
  /// retention keeps) stays close to the source's. A head-truncated topic
  /// keeps its begin offset on the target. On a copy error the target's
  /// partial topic is deleted, so the migration can simply be retried.
  Status MigrateTopic(const std::string& topic, const std::string& target_cluster);

  /// Re-homes a topic whose hosting cluster died onto a healthy cluster
  /// (fresh logs). Called automatically by ProduceBatch on cluster failure.
  Status FailoverTopic(const std::string& topic);

  // --- MessageBus ---------------------------------------------------------

  Status CreateTopic(const std::string& topic, TopicConfig config) override;
  bool HasTopic(const std::string& topic) const override;
  Result<int32_t> NumPartitions(const std::string& topic) const override;
  /// Routes the batch to the hosting cluster's single-memcpy append; on
  /// cluster failure fails the topic over and retries once.
  Result<ProduceResult> ProduceBatch(const std::string& topic, int32_t partition,
                                     const wire::EncodedBatch& batch,
                                     AckMode ack, Priority priority) override;
  /// Zero-copy batch fetch routed to the hosting cluster.
  Result<FetchedBatch> FetchViews(const std::string& topic, int32_t partition,
                                  int64_t offset, size_t max_messages) const override;
  Result<int64_t> BeginOffset(const std::string& topic, int32_t partition) const override;
  Result<int64_t> EndOffset(const std::string& topic, int32_t partition) const override;
  Status JoinGroup(const std::string& group, const std::string& topic,
                   const std::string& member) override;
  Status LeaveGroup(const std::string& group, const std::string& topic,
                    const std::string& member) override;
  Result<std::vector<int32_t>> GetAssignment(const std::string& group,
                                             const std::string& topic,
                                             const std::string& member) const override;
  int64_t GroupGeneration(const std::string& group, const std::string& topic) const override;
  Status CommitOffset(const std::string& group, const std::string& topic,
                      int32_t partition, int64_t offset) override;
  Result<int64_t> CommittedOffset(const std::string& group, const std::string& topic,
                                  int32_t partition) const override;
  Result<int64_t> ConsumerLag(const std::string& group, const std::string& topic) const override;

 private:
  struct ClusterEntry {
    std::shared_ptr<Broker> broker;
    int32_t topic_capacity = 0;
    int32_t hosted_topics = 0;
  };
  struct Group {
    std::vector<std::string> members;
    int64_t generation = 0;
  };

  /// Healthy cluster with spare capacity hosting the fewest topics, or
  /// ResourceExhausted.
  Result<ClusterEntry*> PickClusterLocked();
  /// Owning reference to the hosting broker; safe to use after `mu_` is
  /// released even if the topic is concurrently migrated or failed over
  /// (clients then retry against the re-read route, as real Kafka clients
  /// refresh metadata).
  Result<std::shared_ptr<Broker>> RouteLocked(const std::string& topic) const;
  Result<std::shared_ptr<Broker>> Route(const std::string& topic) const;

  mutable std::mutex mu_;
  std::map<std::string, ClusterEntry> clusters_;
  std::map<std::string, std::string> topic_to_cluster_;
  std::map<std::string, TopicConfig> topic_configs_;
  std::map<std::string, Group> groups_;            // group\0topic
  std::map<std::string, int64_t> committed_;       // group\0topic\0partition
  mutable MetricsRegistry metrics_;
  // Resolved once at construction; ProduceBatch's failover path and the control-
  // plane ops bump these without a registry lookup.
  Counter* topics_created_ = metrics_.GetCounter("federation.topics_created");
  Counter* failover_produces_ = metrics_.GetCounter("federation.failover_produces");
  Counter* migrations_ = metrics_.GetCounter("federation.migrations");
  Counter* failovers_ = metrics_.GetCounter("federation.failovers");
};

}  // namespace uberrt::stream

#endif  // UBERRT_STREAM_FEDERATION_H_
