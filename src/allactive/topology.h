#ifndef UBERRT_ALLACTIVE_TOPOLOGY_H_
#define UBERRT_ALLACTIVE_TOPOLOGY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "allactive/capacity.h"
#include "common/clock.h"
#include "common/fault_injector.h"
#include "common/metrics.h"
#include "common/status.h"
#include "stream/broker.h"
#include "stream/ureplicator.h"

namespace uberrt::allactive {

/// One deployment region: a regional Kafka cluster receiving locally
/// produced events and an aggregate cluster holding the global view (every
/// region's regional data replicated in), per Section 6 / Figure 6.
///
/// Health is tracked per component, not as one binary: a region whose
/// aggregate cluster is down still accepts local produce (only services
/// that need the global view must leave), and a region whose regional
/// cluster is down can still serve the aggregate view it already holds.
class Region {
 public:
  Region(std::string name, const CapacityOptions& capacity, Clock* clock,
         MetricsRegistry* metrics)
      : name_(std::move(name)),
        regional_(std::make_unique<stream::Broker>(name_ + "-regional")),
        aggregate_(std::make_unique<stream::Broker>(name_ + "-aggregate")),
        capacity_(std::make_unique<RegionCapacity>(name_, capacity, clock,
                                                   metrics)) {
    // The capacity budget guards the produce boundary clients hit; the
    // aggregate cluster only receives internal replication and is exempt.
    regional_->SetAdmission(capacity_.get());
  }

  const std::string& name() const { return name_; }
  stream::Broker* regional() { return regional_.get(); }
  stream::Broker* aggregate() { return aggregate_.get(); }
  RegionCapacity* capacity() { return capacity_.get(); }

  /// Simulates losing the whole region (both clusters).
  void Fail() {
    FailRegional();
    FailAggregate();
  }
  void Restore() {
    RestoreRegional();
    RestoreAggregate();
  }
  /// Partial degradation: one cluster down, the other serving.
  void FailRegional() { regional_->SetAvailable(false); }
  void RestoreRegional() { regional_->SetAvailable(true); }
  void FailAggregate() { aggregate_->SetAvailable(false); }
  void RestoreAggregate() { aggregate_->SetAvailable(true); }

  bool regional_healthy() const { return regional_->available(); }
  bool aggregate_healthy() const { return aggregate_->available(); }
  /// Fully healthy — both clusters up. Prefer the component accessors when
  /// deciding what a *specific* workload needs (local produce only needs
  /// the regional cluster).
  bool healthy() const { return regional_healthy() && aggregate_healthy(); }

 private:
  std::string name_;
  std::unique_ptr<stream::Broker> regional_;
  std::unique_ptr<stream::Broker> aggregate_;
  std::unique_ptr<RegionCapacity> capacity_;
};

/// Topology-wide knobs. Defaults preserve the pre-capacity behaviour:
/// effectively unlimited budgets, wall-clock time.
struct TopologyOptions {
  CapacityOptions capacity;
  Clock* clock = SystemClock::Instance();
};

/// The multi-region Kafka fabric of Section 6: every region's regional
/// cluster replicates into *every* region's aggregate cluster via
/// uReplicator (with offset-mapping checkpoints per route), so each
/// aggregate cluster converges to the same logical content and any region
/// can compute the global view.
class MultiRegionTopology {
 public:
  explicit MultiRegionTopology(const std::vector<std::string>& region_names,
                               TopologyOptions options = {});

  Region* GetRegion(const std::string& name);
  std::vector<std::string> RegionNames() const;

  /// Creates the topic in every regional and aggregate cluster and wires a
  /// uReplicator per (source regional, destination aggregate) pair.
  Status CreateTopic(const std::string& topic, stream::TopicConfig config);

  /// Produces to a region's regional cluster (an app publishing locally).
  Result<stream::ProduceResult> ProduceToRegion(const std::string& region,
                                                const std::string& topic,
                                                const stream::Message& message);

  /// Pumps all replication routes once; returns messages moved. Routes
  /// whose source or destination region is down are skipped.
  Result<int64_t> ReplicateOnce();
  /// Pumps until all healthy routes are drained.
  Result<int64_t> ReplicateAll(int32_t max_cycles = 1000);

  /// Route name for the mapping store ("<src>-regional><dst>-aggregate").
  static std::string RouteName(const std::string& source_region,
                               const std::string& destination_region);

  stream::OffsetMappingStore* mapping_store() { return &mapping_store_; }

  /// The offset sync job of Figure 7: translates `group`'s committed
  /// offsets on `from_region`'s aggregate cluster into committed offsets on
  /// `to_region`'s aggregate cluster, conservatively (min over source
  /// routes) so failover loses nothing and replays only a bounded window.
  /// Returns the number of partitions synced. Consults the fault plane at
  /// "allactive.offset_sync" (the sync job reads the active-active mapping
  /// database, which can be transiently unreachable mid-disaster); callers
  /// on the failover path retry with a deadline budget.
  Result<int64_t> SyncConsumerOffsets(const std::string& group, const std::string& topic,
                                      const std::string& from_region,
                                      const std::string& to_region);

  /// Attaches the process-wide fault plane: region availability is then
  /// driven by IsDown("region.<name>") via SyncRegionHealth, and every
  /// replication route consults "ureplicator.copy.<route>".
  void SetFaultInjector(common::FaultInjector* faults);

  /// Reconciles every region's availability with the fault plane's
  /// scripted outages, per component: "region.<name>.regional" and
  /// "region.<name>.aggregate" drive the two clusters separately, and a
  /// rule on the "region.<name>" prefix downs both (the old whole-region
  /// semantics). No-op without an injector. With an injector attached the
  /// fault plane is the single source of truth for region health.
  void SyncRegionHealth();

  /// Registry shared by every region's capacity layer plus topology-level
  /// counters (allactive.shed.<priority>, allactive.rerouted, ...).
  MetricsRegistry* metrics() { return &metrics_; }
  Clock* clock() const { return options_.clock; }

 private:
  struct Route {
    std::string source_region;
    std::string destination_region;
    std::unique_ptr<stream::UReplicator> replicator;
  };

  TopologyOptions options_;
  common::FaultInjector* faults_ = nullptr;
  MetricsRegistry metrics_;
  std::vector<std::unique_ptr<Region>> regions_;
  std::map<std::string, Region*> regions_by_name_;
  std::vector<Route> routes_;
  stream::OffsetMappingStore mapping_store_;
};

}  // namespace uberrt::allactive

#endif  // UBERRT_ALLACTIVE_TOPOLOGY_H_
