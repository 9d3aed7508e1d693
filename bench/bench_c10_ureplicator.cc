// C10 — Section 4.1.4: uReplicator "has an in-built rebalancing algorithm
// so that it minimizes the number of the affected topic partitions during
// rebalancing. Moreover ... when there is bursty traffic it can dynamically
// redistribute the load to the standby workers."
//
// Measures affected partitions across worker churn (minimal-movement vs the
// naive full rehash) and the burst-absorption behaviour of standby workers.

#include "bench_util.h"
#include "stream/broker.h"
#include "stream/ureplicator.h"
#include "stream/producer.h"

namespace uberrt {
namespace {

int64_t ChurnMoves(stream::RebalanceMode mode, int32_t partitions, int32_t workers) {
  stream::Broker source("src"), destination("dst");
  stream::TopicConfig config;
  config.num_partitions = partitions;
  source.CreateTopic("t", config).ok();
  stream::UReplicatorOptions options;
  options.num_workers = workers;
  options.num_standby_workers = 0;
  options.rebalance_mode = mode;
  stream::UReplicator replicator(&source, &destination, "r", nullptr, options);
  replicator.AddTopic("t").ok();
  // Churn: one failure, one replacement, one more failure.
  std::vector<int32_t> alive = replicator.ActiveWorkers();
  replicator.RemoveWorker(alive[0]).ok();
  replicator.AddWorker().ok();
  alive = replicator.ActiveWorkers();
  replicator.RemoveWorker(alive[1]).ok();
  return replicator.partitions_moved_total();
}

}  // namespace

int Main() {
  bench::Header("C10", "uReplicator rebalancing + standby burst absorption",
                "minimizes affected partitions during rebalancing; standby "
                "workers absorb bursty traffic");
  std::printf("affected partitions over 3 membership changes (64 partitions):\n");
  std::printf("%-10s %22s %18s\n", "workers", "minimal_movement", "full_rehash");
  for (int32_t workers : {4, 8, 16}) {
    std::printf("%-10d %22lld %18lld\n", workers,
                static_cast<long long>(
                    ChurnMoves(stream::RebalanceMode::kMinimalMovement, 64, workers)),
                static_cast<long long>(
                    ChurnMoves(stream::RebalanceMode::kFullRehash, 64, workers)));
  }

  std::printf("\nburst absorption (2 active + standby, lag threshold 1000):\n");
  for (int standby : {0, 2}) {
    stream::Broker source("src"), destination("dst");
    stream::TopicConfig config;
    config.num_partitions = 8;
    source.CreateTopic("t", config).ok();
    stream::UReplicatorOptions options;
    options.num_workers = 2;
    options.num_standby_workers = standby;
    options.burst_lag_threshold = 1'000;
    options.batch_size = 256;
    options.worker_cycle_budget = 512;  // bounded per-worker throughput
    stream::UReplicator replicator(&source, &destination, "r", nullptr, options);
    replicator.AddTopic("t").ok();
    // Burst into six of the eight partitions.
    for (int i = 0; i < 24'000; ++i) {
      stream::Message m;
      m.value = "x";
      m.timestamp = 1;
      m.partition = i % 6;
      stream::ProduceOne(&source, "t", std::move(m)).ok();
    }
    int cycles = 0;
    while (replicator.TotalLag().value() > 0 && cycles < 200) {
      replicator.RunOnce().ok();
      ++cycles;
    }
    std::printf("  standby=%d: drained 24k burst in %d pump cycles, "
                "%lld partition moves\n",
                standby, cycles,
                static_cast<long long>(replicator.partitions_moved_total()));
  }
  bench::Note("each pump cycle copies <= batch_size per owned partition; standby "
              "ownership splits the burst across more workers per cycle");
  return 0;
}

}  // namespace uberrt

int main() { return uberrt::Main(); }
