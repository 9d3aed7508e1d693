// Stream hot path — Section 4.1: Kafka at Uber carries "trillions of
// messages and multiple petabytes of data per day", which is only affordable
// when the broker hot path does near-zero per-message work.
//
// Measures the zero-copy binary log against a per-message owning baseline,
// single core, same cluster model, same messages. The broker runs the
// coordination cost model at paper scale (150 nodes, lossless topic,
// acks=all): every produce *request* pays replication coordination, which is
// the per-request overhead batching exists to amortize.
//
// Legs (each the median of three runs against a fresh broker):
//   - client encode: sealing the corpus into wire batches with BatchBuilder.
//     In the Kafka architecture this cost runs on producer *clients*, spread
//     across thousands of services — it is reported separately because it
//     does not size the broker fleet.
//   - produce, per-message baseline: stream::ProduceOne per message — each
//     message is encoded into a one-record batch, CRC'd, validated and
//     appended on its own, and pays coordination per message.
//   - produce, batched broker side: Broker::ProduceBatch over the pre-sealed
//     batches — one CRC verify, one structural walk, one memcpy and one
//     coordination round per 2048 records.
//   - produce, batched end to end: BatchingProducer on the same core doing
//     both the client encode and the broker append (the honest single-thread
//     number; in production these run on different machines).
//   - fetch: Broker::FetchViews plus one view.ToMessage() per record (deep
//     copy into owning Messages, one header map per message — what an
//     owning per-message read API costs) vs Broker::FetchViews alone
//     (borrowed string_view slices, zero per-message allocation).
//
// The headline combined speedup is broker-side produce + fetch — the paper's
// fleet-sizing metric. With UBERRT_PERF_GATE set, exits non-zero if the
// batched path is slower than the per-message baseline on either end-to-end
// leg. All ratios and the core count land in BENCH_stream.json.

#include <algorithm>
#include <array>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "stream/broker.h"
#include "stream/log.h"
#include "stream/producer.h"
#include "stream/wire.h"

namespace uberrt {

namespace {

constexpr int kMessages = 200'000;
constexpr int kReps = 3;
constexpr size_t kFetchChunk = 4096;
constexpr uint32_t kBatchRecords = 2048;
/// Paper-scale cluster for the coordination model (Section 4.1 federation
/// keeps clusters around this size before splitting them).
constexpr int kClusterNodes = 150;

std::vector<stream::Message> BuildCorpus() {
  std::vector<stream::Message> corpus;
  corpus.reserve(kMessages);
  for (int i = 0; i < kMessages; ++i) {
    stream::Message m;
    m.key = "rider-" + std::to_string(i % 1000);
    m.value = "trip-event-payload-" + std::to_string(i) +
              "-xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx";
    m.timestamp = 1 + i;
    m.partition = 0;  // single partition: isolate the log hot path
    // Audit metadata every production message carries (Section 9.4).
    m.headers[stream::kHeaderUid] = "uid-" + std::to_string(i);
    m.headers[stream::kHeaderService] = "rides";
    m.headers[stream::kHeaderTier] = "1";
    corpus.push_back(std::move(m));
  }
  return corpus;
}

std::unique_ptr<stream::Broker> MakeBroker() {
  stream::BrokerOptions options;
  options.coordination_model_enabled = true;
  options.num_nodes = kClusterNodes;
  auto broker = std::make_unique<stream::Broker>("bench", options);
  stream::TopicConfig config;
  config.num_partitions = 1;
  config.lossless = true;  // acked-or-error, never silently dropped
  broker->CreateTopic("t", config).ok();
  return broker;
}

int64_t Median(std::array<int64_t, kReps> v) {
  std::sort(v.begin(), v.end());
  return v[kReps / 2];
}

}  // namespace

int Main() {
  bench::Header("stream", "zero-copy binary log vs per-message hot path",
                "Kafka at Uber: trillions of messages/day (Section 4.1)");
  const std::vector<stream::Message> corpus = BuildCorpus();
  const stream::AckMode ack = stream::AckMode::kAll;

  // --- client encode: seal the corpus into wire batches --------------------
  std::vector<stream::wire::EncodedBatch> sealed;
  std::array<int64_t, kReps> encode_us{};
  for (int rep = 0; rep < kReps; ++rep) {
    sealed.clear();
    encode_us[rep] = bench::TimeUs([&] {
      stream::wire::BatchBuilder builder;
      for (const stream::Message& m : corpus) {
        builder.Add(m);
        if (builder.count() == kBatchRecords) sealed.push_back(builder.Finish());
      }
      if (!builder.empty()) sealed.push_back(builder.Finish());
    });
  }

  // --- produce: per-message baseline ---------------------------------------
  std::unique_ptr<stream::Broker> base_broker;
  std::array<int64_t, kReps> base_produce_us{};
  for (int rep = 0; rep < kReps; ++rep) {
    base_broker = MakeBroker();
    base_produce_us[rep] = bench::TimeUs([&] {
      for (const stream::Message& m : corpus) {
        stream::ProduceOne(base_broker.get(), "t", m, ack).ok();
      }
    });
  }

  // --- produce: batched, broker side ---------------------------------------
  std::unique_ptr<stream::Broker> batch_broker;
  std::array<int64_t, kReps> broker_produce_us{};
  for (int rep = 0; rep < kReps; ++rep) {
    batch_broker = MakeBroker();
    broker_produce_us[rep] = bench::TimeUs([&] {
      for (const stream::wire::EncodedBatch& b : sealed) {
        batch_broker->ProduceBatch("t", 0, b, ack, stream::Priority::kImportant).ok();
      }
    });
  }

  // --- produce: batched, end to end on one core ----------------------------
  int64_t batches_flushed = 0;
  std::array<int64_t, kReps> e2e_produce_us{};
  for (int rep = 0; rep < kReps; ++rep) {
    std::unique_ptr<stream::Broker> e2e_broker = MakeBroker();
    stream::BatchingProducerOptions producer_options;
    producer_options.batch_records = kBatchRecords;
    producer_options.batch_bytes = 1 << 20;
    producer_options.linger_ms = -1;  // size-triggered; bench flushes at the end
    producer_options.ack = ack;
    stream::BatchingProducer producer(e2e_broker.get(), "t", producer_options);
    e2e_produce_us[rep] = bench::TimeUs([&] {
      for (const stream::Message& m : corpus) {
        producer.Produce(m).ok();
      }
      producer.Flush().ok();
    });
    batches_flushed = producer.batches_flushed();
  }

  // --- fetch: deep-copy baseline vs zero-copy views ------------------------
  // Both consume the same data from the brokers kept from the produce legs;
  // checksum the payload bytes so the reads cannot be optimized away.
  uint64_t base_sum = 0;
  std::array<int64_t, kReps> base_fetch_us{};
  for (int rep = 0; rep < kReps; ++rep) {
    base_sum = 0;
    base_fetch_us[rep] = bench::TimeUs([&] {
      int64_t offset = 0;
      while (offset < kMessages) {
        auto fetched = base_broker->FetchViews("t", 0, offset, kFetchChunk);
        if (!fetched.ok() || fetched.value().empty()) break;
        std::vector<stream::Message> owned;
        owned.reserve(fetched.value().size());
        for (const stream::wire::MessageView& v : fetched.value().messages) {
          owned.push_back(v.ToMessage());
        }
        for (const stream::Message& m : owned) {
          base_sum += m.value.size() + m.headers.size();
        }
        offset = owned.back().offset + 1;
      }
    });
  }

  uint64_t view_sum = 0;
  std::array<int64_t, kReps> view_fetch_us{};
  for (int rep = 0; rep < kReps; ++rep) {
    view_sum = 0;
    view_fetch_us[rep] = bench::TimeUs([&] {
      int64_t offset = 0;
      while (offset < kMessages) {
        auto fetched = batch_broker->FetchViews("t", 0, offset, kFetchChunk);
        if (!fetched.ok() || fetched.value().empty()) break;
        for (const stream::wire::MessageView& v : fetched.value().messages) {
          view_sum += v.value.size() + v.header_count;
        }
        offset = fetched.value().messages.back().offset + 1;
      }
    });
  }
  if (base_sum != view_sum) {
    std::printf("CHECKSUM MISMATCH: baseline %llu vs views %llu\n",
                static_cast<unsigned long long>(base_sum),
                static_cast<unsigned long long>(view_sum));
    return 1;
  }

  const int64_t encode = Median(encode_us);
  const int64_t base_produce = Median(base_produce_us);
  const int64_t broker_produce = Median(broker_produce_us);
  const int64_t e2e_produce = Median(e2e_produce_us);
  const int64_t base_fetch = Median(base_fetch_us);
  const int64_t view_fetch = Median(view_fetch_us);

  auto rate = [](int64_t us) {
    return us > 0 ? 1e6 * kMessages / static_cast<double>(us) : 0.0;
  };
  auto per_msg_ns = [](int64_t us) { return 1000.0 * us / kMessages; };
  double produce_broker_speedup =
      static_cast<double>(base_produce) / static_cast<double>(broker_produce);
  double produce_e2e_speedup =
      static_cast<double>(base_produce) / static_cast<double>(e2e_produce);
  double fetch_speedup =
      static_cast<double>(base_fetch) / static_cast<double>(view_fetch);
  double combined_broker_speedup =
      static_cast<double>(base_produce + base_fetch) /
      static_cast<double>(broker_produce + view_fetch);
  double combined_e2e_speedup =
      static_cast<double>(base_produce + base_fetch) /
      static_cast<double>(e2e_produce + view_fetch);

  std::printf("%-34s %11s %13s %9s\n", "leg (single core, median of 3)",
              "ns/msg", "msgs/sec", "speedup");
  std::printf("%-34s %9.0fns %13.0f\n", "client encode (producer side)",
              per_msg_ns(encode), rate(encode));
  std::printf("%-34s %9.0fns %13.0f\n", "produce baseline (per message)",
              per_msg_ns(base_produce), rate(base_produce));
  std::printf("%-34s %9.0fns %13.0f %8.2fx\n", "produce batched (broker side)",
              per_msg_ns(broker_produce), rate(broker_produce),
              produce_broker_speedup);
  std::printf("%-34s %9.0fns %13.0f %8.2fx\n", "produce batched (end to end)",
              per_msg_ns(e2e_produce), rate(e2e_produce), produce_e2e_speedup);
  std::printf("%-34s %9.0fns %13.0f\n", "fetch baseline (owning Messages)",
              per_msg_ns(base_fetch), rate(base_fetch));
  std::printf("%-34s %9.0fns %13.0f %8.2fx\n", "fetch zero-copy (views)",
              per_msg_ns(view_fetch), rate(view_fetch), fetch_speedup);
  std::printf("-> combined produce+fetch speedup: %.2fx broker side, "
              "%.2fx end to end (batches shipped: %lld)\n",
              combined_broker_speedup, combined_e2e_speedup,
              static_cast<long long>(batches_flushed));

  bench::JsonReport report("stream",
                           "trillions of messages/day need a near-zero-cost "
                           "per-message hot path (Section 4.1)");
  report.Metric("messages", static_cast<double>(kMessages));
  report.Metric("cluster_nodes", static_cast<double>(kClusterNodes));
  report.Metric("batch_records", static_cast<double>(kBatchRecords));
  report.Metric("fetch_chunk", static_cast<double>(kFetchChunk));
  report.Metric("client_encode_ns_per_msg", per_msg_ns(encode));
  report.Metric("produce_baseline_msgs_per_sec", rate(base_produce));
  report.Metric("produce_broker_batched_msgs_per_sec", rate(broker_produce));
  report.Metric("produce_e2e_batched_msgs_per_sec", rate(e2e_produce));
  report.Metric("produce_broker_speedup", produce_broker_speedup);
  report.Metric("produce_e2e_speedup", produce_e2e_speedup);
  report.Metric("fetch_baseline_msgs_per_sec", rate(base_fetch));
  report.Metric("fetch_views_msgs_per_sec", rate(view_fetch));
  report.Metric("fetch_speedup", fetch_speedup);
  report.Metric("combined_broker_speedup", combined_broker_speedup);
  report.Metric("combined_e2e_speedup", combined_e2e_speedup);
  report.Metric("batches_flushed", static_cast<double>(batches_flushed));
  report.Write();

  if (std::getenv("UBERRT_PERF_GATE") != nullptr) {
    if (produce_e2e_speedup < 1.0 || fetch_speedup < 1.0) {
      std::printf("PERF GATE FAIL: batched path slower than per-message "
                  "baseline (produce %.2fx, fetch %.2fx)\n",
                  produce_e2e_speedup, fetch_speedup);
      return 1;
    }
    std::printf("PERF GATE OK: produce %.2fx e2e (%.2fx broker side), fetch "
                "%.2fx, combined %.2fx broker side\n",
                produce_e2e_speedup, produce_broker_speedup, fetch_speedup,
                combined_broker_speedup);
  }
  return 0;
}

}  // namespace uberrt

int main() { return uberrt::Main(); }
