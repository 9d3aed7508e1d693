// C13 — Section 4.1.4: Chaperone "collects key statistics like the number
// of unique messages in a tumbling time window from every stage of the
// replication pipeline ... and generates alerts when mismatch is detected."
//
// Drives producer -> regional Kafka -> uReplicator -> aggregate Kafka with
// injected loss and duplication and shows the audit catching both, per
// stage and per window.

#include "bench_util.h"
#include "common/rng.h"
#include "stream/broker.h"
#include "stream/chaperone.h"
#include "stream/ureplicator.h"
#include "stream/producer.h"

namespace uberrt {

int Main() {
  bench::Header("C13", "Chaperone end-to-end audit across replication stages",
                "compares per-window unique-message counts at every stage; "
                "alerts on mismatch (loss or duplication)");
  constexpr int kMessages = 5'000;
  stream::Broker regional("regional"), aggregate("aggregate");
  stream::TopicConfig config;
  config.num_partitions = 4;
  regional.CreateTopic("trips", config).ok();
  stream::Chaperone audit(10'000);  // 10s windows
  Rng rng(21);

  // Stage 1: producer -> regional, with ~0.2% of produces silently dropped
  // (simulating a lossy client path).
  int64_t injected_loss = 0;
  for (int i = 0; i < kMessages; ++i) {
    stream::Message m;
    m.key = "k" + std::to_string(i % 64);
    m.value = "v";
    m.timestamp = 20 * (i + 1);
    m.headers[stream::kHeaderUid] = "uid" + std::to_string(i);
    audit.Record("producer", "trips", m);
    if (rng.Chance(0.002)) {
      ++injected_loss;
      continue;  // lost before reaching the regional cluster
    }
    stream::ProduceOne(&regional, "trips", std::move(m)).ok();
  }
  // Stage 2: what the regional cluster actually holds.
  for (int32_t p = 0; p < 4; ++p) {
    Result<stream::FetchedBatch> batch = regional.FetchViews("trips", p, 0, 100'000);
    for (const stream::wire::MessageView& m : batch.value().messages) {
      audit.Record("regional", "trips", m.ToMessage());
    }
  }
  // Stage 3: replication to the aggregate cluster, with ~0.5% duplicates
  // (at-least-once redelivery).
  stream::UReplicator replicator(&regional, &aggregate, "r", nullptr);
  replicator.AddTopic("trips").ok();
  replicator.RunUntilCaughtUp().ok();
  int64_t injected_dupes = 0;
  for (int32_t p = 0; p < 4; ++p) {
    Result<stream::FetchedBatch> batch = aggregate.FetchViews("trips", p, 0, 100'000);
    for (const stream::wire::MessageView& view : batch.value().messages) {
      const stream::Message m = view.ToMessage();
      audit.Record("aggregate", "trips", m);
      if (rng.Chance(0.005)) {
        ++injected_dupes;
        audit.Record("aggregate", "trips", m);  // redelivered copy observed
      }
    }
  }

  auto report = [&](const char* from, const char* to) {
    std::vector<stream::AuditAlert> alerts = audit.Compare(from, to, "trips");
    int64_t lost = 0, duplicated = 0;
    int loss_windows = 0, dup_windows = 0;
    for (const stream::AuditAlert& alert : alerts) {
      if (alert.kind == stream::AuditAlert::Kind::kLoss) {
        lost += alert.upstream_count - alert.downstream_count;
        ++loss_windows;
      } else {
        duplicated += alert.downstream_count - alert.upstream_count;
        ++dup_windows;
      }
    }
    std::printf("%-12s -> %-12s: %2d loss alerts (%lld msgs), %2d dup alerts "
                "(%lld msgs)\n",
                from, to, loss_windows, static_cast<long long>(lost), dup_windows,
                static_cast<long long>(duplicated));
  };
  std::printf("injected: %lld losses (producer->regional), %lld duplicates "
              "(replication)\n\n",
              static_cast<long long>(injected_loss),
              static_cast<long long>(injected_dupes));
  report("producer", "regional");
  report("regional", "aggregate");
  bench::Note("detected counts equal injected counts: the audit pinpoints the "
              "stage and tumbling window of every discrepancy (Section 9.4 "
              "data auditing)");
  return 0;
}

}  // namespace uberrt

int main() { return uberrt::Main(); }
