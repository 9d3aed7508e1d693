#include "stream/ureplicator.h"

#include <algorithm>

#include "common/hash.h"
#include "common/retry.h"

namespace uberrt::stream {

namespace {

std::string MappingKey(const std::string& route, const TopicPartition& tp) {
  return route + '\0' + tp.topic + '\0' + std::to_string(tp.partition);
}

}  // namespace

void OffsetMappingStore::Checkpoint(const std::string& route, const TopicPartition& tp,
                                    OffsetMapping mapping) {
  std::lock_guard<std::mutex> lock(mu_);
  mappings_[MappingKey(route, tp)].push_back(mapping);
}

Result<OffsetMapping> OffsetMappingStore::LatestAtOrBefore(
    const std::string& route, const TopicPartition& tp, int64_t source_offset) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = mappings_.find(MappingKey(route, tp));
  if (it == mappings_.end()) return Status::NotFound("no checkpoints for route");
  const OffsetMapping* best = nullptr;
  for (const OffsetMapping& m : it->second) {
    if (m.source_offset <= source_offset &&
        (best == nullptr || m.source_offset > best->source_offset)) {
      best = &m;
    }
  }
  if (best == nullptr) return Status::NotFound("no checkpoint at or before offset");
  return *best;
}

Result<OffsetMapping> OffsetMappingStore::LatestByDestinationAtOrBefore(
    const std::string& route, const TopicPartition& tp,
    int64_t destination_offset) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = mappings_.find(MappingKey(route, tp));
  if (it == mappings_.end()) return Status::NotFound("no checkpoints for route");
  const OffsetMapping* best = nullptr;
  for (const OffsetMapping& m : it->second) {
    if (m.destination_offset <= destination_offset &&
        (best == nullptr || m.destination_offset > best->destination_offset)) {
      best = &m;
    }
  }
  if (best == nullptr) return Status::NotFound("no checkpoint at or before offset");
  return *best;
}

std::vector<OffsetMapping> OffsetMappingStore::GetAll(const std::string& route,
                                                      const TopicPartition& tp) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = mappings_.find(MappingKey(route, tp));
  if (it == mappings_.end()) return {};
  return it->second;
}

Result<OffsetMapping> OffsetMappingStore::Earliest(const std::string& route,
                                                   const TopicPartition& tp) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = mappings_.find(MappingKey(route, tp));
  if (it == mappings_.end() || it->second.empty()) {
    return Status::NotFound("no checkpoints for route");
  }
  return it->second.front();
}

UReplicator::UReplicator(Broker* source, Broker* destination, std::string route,
                         OffsetMappingStore* mapping_store,
                         UReplicatorOptions options)
    : source_(source),
      destination_(destination),
      route_(std::move(route)),
      copy_site_("ureplicator.copy." + route_),
      mapping_store_(mapping_store),
      options_(options) {
  for (int32_t i = 0; i < options_.num_workers; ++i) {
    active_workers_.insert(next_worker_id_++);
  }
  for (int32_t i = 0; i < options_.num_standby_workers; ++i) {
    standby_workers_.insert(next_worker_id_++);
  }
}

int32_t UReplicator::LeastLoadedWorkerLocked() const {
  std::map<int32_t, int64_t> load;
  for (int32_t w : active_workers_) load[w] = 0;
  for (const auto& [tp, state] : partitions_) {
    if (load.count(state.owner) > 0) ++load[state.owner];
  }
  int32_t best = -1;
  int64_t best_load = 0;
  for (const auto& [worker, count] : load) {
    if (best == -1 || count < best_load) {
      best = worker;
      best_load = count;
    }
  }
  return best;
}

Status UReplicator::AddTopic(const std::string& topic) {
  Result<int32_t> partitions = source_->NumPartitions(topic);
  if (!partitions.ok()) return partitions.status();
  if (!destination_->HasTopic(topic)) {
    Result<TopicConfig> config = source_->GetTopicConfig(topic);
    if (!config.ok()) return config.status();
    UBERRT_RETURN_IF_ERROR(destination_->CreateTopic(topic, config.value()));
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (active_workers_.empty()) return Status::FailedPrecondition("no active workers");
  for (int32_t p = 0; p < partitions.value(); ++p) {
    TopicPartition tp{topic, p};
    if (partitions_.count(tp) > 0) continue;
    PartitionState state;
    state.owner = LeastLoadedWorkerLocked();
    Result<int64_t> begin = source_->BeginOffset(topic, p);
    if (!begin.ok()) return begin.status();
    state.source_position = begin.value();
    partitions_[tp] = state;
  }
  return Status::Ok();
}

int64_t UReplicator::RehashAllLocked() {
  // Naive strategy: deterministic hash of the partition over the *current*
  // sorted worker list. Any membership change shifts most assignments.
  std::vector<int32_t> workers(active_workers_.begin(), active_workers_.end());
  int64_t moved = 0;
  for (auto& [tp, state] : partitions_) {
    int32_t target =
        workers[Fnv1a64(tp.ToString()) % static_cast<uint64_t>(workers.size())];
    if (state.owner != target) {
      state.owner = target;
      ++moved;
    }
  }
  return moved;
}

Result<int64_t> UReplicator::RemoveWorker(int32_t worker_id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (active_workers_.erase(worker_id) == 0) {
    return Status::NotFound("no active worker " + std::to_string(worker_id));
  }
  if (active_workers_.empty()) {
    active_workers_.insert(worker_id);
    return Status::FailedPrecondition("cannot remove last worker");
  }
  int64_t moved = 0;
  if (options_.rebalance_mode == RebalanceMode::kFullRehash) {
    moved = RehashAllLocked();
  } else {
    // Minimal movement: only the dead worker's partitions are reassigned,
    // each to the currently least-loaded survivor.
    for (auto& [tp, state] : partitions_) {
      if (state.owner == worker_id) {
        state.owner = LeastLoadedWorkerLocked();
        ++moved;
      }
    }
  }
  partitions_moved_total_.fetch_add(moved, std::memory_order_relaxed);
  return moved;
}

Result<int64_t> UReplicator::AddWorker() {
  std::lock_guard<std::mutex> lock(mu_);
  int32_t id = next_worker_id_++;
  active_workers_.insert(id);
  int64_t moved = 0;
  if (options_.rebalance_mode == RebalanceMode::kFullRehash) {
    moved = RehashAllLocked();
  } else {
    // Minimal movement: steal just enough partitions to even the load.
    int64_t target_load =
        static_cast<int64_t>(partitions_.size()) /
        static_cast<int64_t>(active_workers_.size());
    std::map<int32_t, int64_t> load;
    for (const auto& [tp, state] : partitions_) ++load[state.owner];
    for (auto& [tp, state] : partitions_) {
      if (moved >= target_load) break;
      if (load[state.owner] > target_load) {
        --load[state.owner];
        state.owner = id;
        ++moved;
      }
    }
  }
  partitions_moved_total_.fetch_add(moved, std::memory_order_relaxed);
  return moved;
}

void UReplicator::RedistributeBurstsLocked() {
  if (standby_workers_.empty()) return;
  // Find the bursting partitions, then even them out over the combined
  // active+standby pool: overloaded workers shed bursting partitions to
  // standbys until everyone is at the fair share. This is what "dynamically
  // redistribute the load to the standby workers" buys: extra copy
  // capacity, not a different bottleneck.
  std::vector<std::map<TopicPartition, PartitionState>::iterator> bursting;
  std::map<int32_t, int64_t> burst_count;
  for (auto it = partitions_.begin(); it != partitions_.end(); ++it) {
    Result<int64_t> end = source_->EndOffset(it->first.topic, it->first.partition);
    if (!end.ok()) continue;
    if (end.value() - it->second.source_position > options_.burst_lag_threshold) {
      bursting.push_back(it);
      ++burst_count[it->second.owner];
    }
  }
  if (bursting.empty()) return;
  int64_t pool_size = static_cast<int64_t>(active_workers_.size()) +
                      static_cast<int64_t>(standby_workers_.size());
  int64_t fair = (static_cast<int64_t>(bursting.size()) + pool_size - 1) / pool_size;
  for (auto& it : bursting) {
    if (burst_count[it->second.owner] <= fair) continue;
    for (int32_t standby : standby_workers_) {
      if (burst_count[standby] < fair) {
        --burst_count[it->second.owner];
        ++burst_count[standby];
        it->second.owner = standby;
        partitions_moved_total_.fetch_add(1, std::memory_order_relaxed);
        break;
      }
    }
  }
}

Result<int64_t> UReplicator::RunOnce() {
  std::lock_guard<std::mutex> lock(mu_);
  RedistributeBurstsLocked();

  // Group partitions by owning logical worker: workers copy in parallel on
  // the executor (mu_ is held, so the groups touch disjoint PartitionState
  // entries and the brokers are thread-safe); within a worker, partitions
  // pump in order under the shared cycle budget.
  std::map<int32_t, std::vector<std::pair<const TopicPartition*, PartitionState*>>>
      by_worker;
  for (auto& [tp, state] : partitions_) {
    by_worker[state.owner].push_back({&tp, &state});
  }

  struct WorkerOutcome {
    int64_t replicated = 0;
    Status status;
  };
  auto run_worker =
      [this](const std::vector<std::pair<const TopicPartition*, PartitionState*>>& parts,
             WorkerOutcome* out) {
        int64_t remaining = options_.worker_cycle_budget;
        for (const auto& [tp_ptr, state] : parts) {
          const TopicPartition& tp = *tp_ptr;
          if (remaining <= 0) break;
          // Injected copy faults and transient broker errors skip the
          // partition for this cycle — it stays at source_position and is
          // retried next pump, so faults only ever add lag.
          if (options_.faults != nullptr && !options_.faults->Check(copy_site_).ok()) {
            transient_skips_.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          int64_t want = std::min<int64_t>(static_cast<int64_t>(options_.batch_size),
                                           remaining);
          if (mapping_store_ != nullptr) {
            // Chunk copies at checkpoint boundaries so offset-mapping
            // fidelity (one mapping per checkpoint_every records) is
            // preserved with batched produce.
            want = std::min(want,
                            options_.checkpoint_every - state->since_checkpoint);
          }
          Result<FetchedBatch> batch = source_->FetchViews(
              tp.topic, tp.partition, state->source_position, static_cast<size_t>(want));
          if (!batch.ok()) {
            if (batch.status().code() == StatusCode::kOutOfRange) {
              // Source truncated under us; skip forward.
              Result<int64_t> begin = source_->BeginOffset(tp.topic, tp.partition);
              if (begin.ok()) state->source_position = begin.value();
              continue;
            }
            if (common::RetryPolicy::IsRetryable(batch.status())) {
              transient_skips_.fetch_add(1, std::memory_order_relaxed);
              continue;
            }
            out->status = batch.status();
            return;
          }
          if (batch.value().empty()) continue;
          // Re-append the fetched frames verbatim (no Message is ever
          // materialized on the copy path); the destination assigns its own
          // offsets from the batch base.
          wire::BatchBuilder builder;
          for (const wire::MessageView& v : batch.value().messages) {
            builder.AddEncodedFrame(v.raw_frame, v.timestamp);
          }
          int64_t last_source = batch.value().messages.back().offset;
          int64_t copied = static_cast<int64_t>(builder.count());
          Result<ProduceResult> produced = destination_->ProduceBatch(
              tp.topic, tp.partition, builder.Finish(), AckMode::kLeader,
              Priority::kImportant);
          if (!produced.ok()) {
            if (common::RetryPolicy::IsRetryable(produced.status())) {
              // The batch append is atomic: nothing was stored, the
              // partition stays at source_position and retries next cycle.
              transient_skips_.fetch_add(1, std::memory_order_relaxed);
              continue;
            }
            out->status = produced.status();
            return;
          }
          state->source_position = last_source + 1;
          state->since_checkpoint += copied;
          out->replicated += copied;
          remaining -= copied;
          if (mapping_store_ != nullptr && !state->anchored) {
            // Anchor the route's first copied message. Offset sync treats a
            // source with no checkpoint at-or-before the committed offset
            // as never consumed, which is only sound if the first copied
            // batch is always visible in the store.
            mapping_store_->Checkpoint(
                route_, tp,
                OffsetMapping{batch.value().messages.front().offset,
                              produced.value().offset});
            state->anchored = true;
          }
          if (mapping_store_ != nullptr &&
              state->since_checkpoint >= options_.checkpoint_every) {
            mapping_store_->Checkpoint(
                route_, tp,
                OffsetMapping{last_source + 1, produced.value().offset + copied});
            state->since_checkpoint = 0;
          }
        }
      };

  std::vector<WorkerOutcome> outcomes(by_worker.size());
  if (options_.executor != nullptr && by_worker.size() > 1) {
    common::WaitGroup wg;
    size_t slot = 0;
    for (auto& [worker, parts] : by_worker) {
      WorkerOutcome* out = &outcomes[slot++];
      wg.Add(1);
      auto task = [&run_worker, &parts, out, &wg] {
        run_worker(parts, out);
        wg.Done();
      };
      if (!options_.executor->Submit(task)) {
        task();  // pool shut down: degrade to inline
      }
    }
    wg.Wait();
  } else {
    size_t slot = 0;
    for (auto& [worker, parts] : by_worker) {
      run_worker(parts, &outcomes[slot++]);
    }
  }

  int64_t replicated = 0;
  for (const WorkerOutcome& out : outcomes) {
    if (!out.status.ok()) return out.status;
    replicated += out.replicated;
  }
  return replicated;
}

Result<int64_t> UReplicator::RunUntilCaughtUp(int32_t max_cycles) {
  int64_t total = 0;
  for (int32_t i = 0; i < max_cycles; ++i) {
    Result<int64_t> n = RunOnce();
    if (!n.ok()) return n.status();
    total += n.value();
    Result<int64_t> lag = TotalLag();
    if (!lag.ok()) return lag.status();
    if (lag.value() == 0) return total;
  }
  return Status::Timeout("not caught up after max_cycles");
}

Result<int64_t> UReplicator::TotalLag() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t lag = 0;
  for (const auto& [tp, state] : partitions_) {
    Result<int64_t> end = source_->EndOffset(tp.topic, tp.partition);
    if (!end.ok()) return end.status();
    lag += std::max<int64_t>(0, end.value() - state.source_position);
  }
  return lag;
}

int32_t UReplicator::OwnerOf(const TopicPartition& tp) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = partitions_.find(tp);
  return it == partitions_.end() ? -1 : it->second.owner;
}

std::vector<int32_t> UReplicator::ActiveWorkers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {active_workers_.begin(), active_workers_.end()};
}

}  // namespace uberrt::stream
