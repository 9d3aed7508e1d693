#include "allactive/topology.h"

#include <algorithm>

#include "stream/producer.h"

namespace uberrt::allactive {

MultiRegionTopology::MultiRegionTopology(const std::vector<std::string>& region_names,
                                         TopologyOptions options)
    : options_(options) {
  for (const std::string& name : region_names) {
    auto region =
        std::make_unique<Region>(name, options_.capacity, options_.clock, &metrics_);
    regions_by_name_[name] = region.get();
    regions_.push_back(std::move(region));
  }
  // Full mesh: every regional cluster replicates into every aggregate.
  for (auto& source : regions_) {
    for (auto& destination : regions_) {
      Route route;
      route.source_region = source->name();
      route.destination_region = destination->name();
      stream::UReplicatorOptions rep_options;
      rep_options.checkpoint_every = 50;
      route.replicator = std::make_unique<stream::UReplicator>(
          source->regional(), destination->aggregate(),
          RouteName(source->name(), destination->name()), &mapping_store_, rep_options);
      routes_.push_back(std::move(route));
    }
  }
}

void MultiRegionTopology::SetFaultInjector(common::FaultInjector* faults) {
  faults_ = faults;
  for (Route& route : routes_) route.replicator->SetFaultInjector(faults);
}

void MultiRegionTopology::SyncRegionHealth() {
  if (faults_ == nullptr) return;
  for (auto& region : regions_) {
    // Component sites are children of "region.<name>", so a rule on the
    // whole-region prefix (the pre-existing chaos vocabulary) downs both,
    // while targeted scripts can fail one cluster and leave the other up.
    const bool regional_down =
        faults_->IsDown("region." + region->name() + ".regional");
    const bool aggregate_down =
        faults_->IsDown("region." + region->name() + ".aggregate");
    if (regional_down) {
      region->FailRegional();
    } else {
      region->RestoreRegional();
    }
    if (aggregate_down) {
      region->FailAggregate();
    } else {
      region->RestoreAggregate();
    }
  }
}

Region* MultiRegionTopology::GetRegion(const std::string& name) {
  auto it = regions_by_name_.find(name);
  return it == regions_by_name_.end() ? nullptr : it->second;
}

std::vector<std::string> MultiRegionTopology::RegionNames() const {
  std::vector<std::string> out;
  for (const auto& region : regions_) out.push_back(region->name());
  return out;
}

std::string MultiRegionTopology::RouteName(const std::string& source_region,
                                           const std::string& destination_region) {
  return source_region + "-regional>" + destination_region + "-aggregate";
}

Status MultiRegionTopology::CreateTopic(const std::string& topic,
                                        stream::TopicConfig config) {
  for (auto& region : regions_) {
    UBERRT_RETURN_IF_ERROR(region->regional()->CreateTopic(topic, config));
    UBERRT_RETURN_IF_ERROR(region->aggregate()->CreateTopic(topic, config));
  }
  for (Route& route : routes_) {
    UBERRT_RETURN_IF_ERROR(route.replicator->AddTopic(topic));
  }
  return Status::Ok();
}

Result<stream::ProduceResult> MultiRegionTopology::ProduceToRegion(
    const std::string& region, const std::string& topic, const stream::Message& message) {
  Region* r = GetRegion(region);
  if (r == nullptr) return Status::NotFound("no region: " + region);
  return stream::ProduceOne(r->regional(), topic, message);
}

Result<int64_t> MultiRegionTopology::ReplicateOnce() {
  int64_t moved = 0;
  for (Route& route : routes_) {
    Region* source = GetRegion(route.source_region);
    Region* destination = GetRegion(route.destination_region);
    if (!source->regional()->available() || !destination->aggregate()->available()) {
      continue;
    }
    Result<int64_t> n = route.replicator->RunOnce();
    if (!n.ok()) return n;
    moved += n.value();
  }
  return moved;
}

Result<int64_t> MultiRegionTopology::ReplicateAll(int32_t max_cycles) {
  int64_t total = 0;
  for (int32_t i = 0; i < max_cycles; ++i) {
    Result<int64_t> moved = ReplicateOnce();
    if (!moved.ok()) return moved;
    total += moved.value();
    if (moved.value() == 0) return total;
  }
  return Status::Timeout("replication did not drain");
}

Result<int64_t> MultiRegionTopology::SyncConsumerOffsets(const std::string& group,
                                                         const std::string& topic,
                                                         const std::string& from_region,
                                                         const std::string& to_region) {
  if (faults_ != nullptr) {
    UBERRT_RETURN_IF_ERROR(faults_->Check("allactive.offset_sync"));
  }
  Region* from = GetRegion(from_region);
  Region* to = GetRegion(to_region);
  if (from == nullptr || to == nullptr) return Status::NotFound("unknown region");
  Result<int32_t> partitions = from->aggregate()->NumPartitions(topic);
  if (!partitions.ok()) return partitions.status();

  int64_t synced = 0;
  for (int32_t p = 0; p < partitions.value(); ++p) {
    Result<int64_t> committed = from->aggregate()->CommittedOffset(group, topic, p);
    if (!committed.ok()) continue;  // nothing to sync for this partition
    stream::TopicPartition tp{topic, p};
    // For each source region: invert (source -> from-aggregate) at the
    // committed offset, then map forward through (source -> to-aggregate).
    // The minimum destination offset over all sources is safe: every
    // message the consumer processed in `from` is at or before it in `to`
    // for its own source stream, so nothing is skipped.
    int64_t safe_offset = INT64_MAX;
    bool any = false;
    for (const auto& region : regions_) {
      const std::string inbound = RouteName(region->name(), from_region);
      const std::string outbound = RouteName(region->name(), to_region);
      Result<stream::OffsetMapping> at_from =
          mapping_store_.LatestByDestinationAtOrBefore(inbound, tp, committed.value());
      if (!at_from.ok()) {
        // No inbound checkpoint at or before the committed offset. Every
        // route anchors its first copied batch, so this proves the consumer
        // has consumed nothing of this source in `from`. If the source has
        // already reached `to`, the resume point must not skip past its
        // first message there; a source with no presence in `to` constrains
        // nothing. Dropping the source instead would let the min over the
        // other sources overshoot its unconsumed messages — silent loss.
        Result<stream::OffsetMapping> anchor = mapping_store_.Earliest(outbound, tp);
        if (anchor.ok()) {
          safe_offset = std::min(safe_offset, anchor.value().destination_offset);
          any = true;
        }
        continue;
      }
      Result<stream::OffsetMapping> at_to = mapping_store_.LatestAtOrBefore(
          outbound, tp, at_from.value().source_offset);
      if (!at_to.ok()) {
        // Destination has no checkpoint yet for this source: resume from
        // the beginning of the destination partition to avoid loss.
        safe_offset = 0;
        any = true;
        continue;
      }
      safe_offset = std::min(safe_offset, at_to.value().destination_offset);
      any = true;
    }
    if (!any) continue;
    UBERRT_RETURN_IF_ERROR(
        to->aggregate()->CommitOffset(group, topic, p, safe_offset));
    ++synced;
  }
  return synced;
}

}  // namespace uberrt::allactive
