#ifndef UBERRT_STREAM_PRODUCER_H_
#define UBERRT_STREAM_PRODUCER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "stream/admission.h"
#include "stream/message_bus.h"

namespace uberrt::stream {

/// Client-side batching knobs — Kafka's batch.size / linger.ms levers, the
/// dominant throughput controls per the benchmark-practices catalog in
/// PAPERS.md.
struct BatchingProducerOptions {
  /// Flush a partition's buffer when it holds this many records...
  size_t batch_records = 512;
  /// ...or this many encoded payload bytes...
  size_t batch_bytes = 64 * 1024;
  /// ...or when its oldest buffered record has waited this long. <= 0 means
  /// no time budget (flush on size or explicitly).
  int64_t linger_ms = 5;
  AckMode ack = AckMode::kLeader;
};

// The two write clients over MessageBus::ProduceBatch. Both place a message
// by one rule: its explicit partition, else the hash of its key. Keyless
// messages go round-robin. Both stamp timestamp 0 on the client side, since
// the broker never re-stamps frames: BatchingProducer with its injected
// clock, ProduceOne with the system clock. A caller whose broker runs on a
// simulated clock sets its own timestamps for ProduceOne, or age retention
// compares wall-clock stamps against simulated time.
//  - BatchingProducer for bulk loops: flush before relying on delivery.
//  - ProduceOne for one-off sends: one record, one batch, one result.

/// Sends `message` to `topic` as a one-record batch admitted at `priority`
/// and returns the bus's result (a keyless message takes the broker's
/// round-robin partition). Never retried: the caller sees every shed and
/// every error.
Result<ProduceResult> ProduceOne(MessageBus* bus, const std::string& topic,
                                 const Message& message,
                                 AckMode ack = AckMode::kLeader,
                                 Priority priority = Priority::kImportant);

/// Batching producer for one topic: messages are encoded straight into
/// per-partition wire::BatchBuilder buffers (keyless messages round-robin
/// per message, across batches) and shipped with MessageBus::ProduceBatch —
/// one routed, single-memcpy append per batch instead of one per message.
///
/// Delivery contract: Produce() buffers and returns Ok; a batch is durable
/// only once its flush returns Ok. A failed flush keeps the sealed batch
/// pending and retries it on the next flush of that partition, so a
/// transient cluster outage (or federation failover) delays delivery but
/// never silently drops buffered records. Call Flush() before relying on
/// acked-or-error.
///
/// Not thread-safe: one producer per thread, like the Kafka client.
class BatchingProducer {
 public:
  BatchingProducer(MessageBus* bus, std::string topic,
                   BatchingProducerOptions options = {},
                   Clock* clock = SystemClock::Instance());
  /// Best-effort flush of anything still buffered.
  ~BatchingProducer();

  BatchingProducer(const BatchingProducer&) = delete;
  BatchingProducer& operator=(const BatchingProducer&) = delete;

  /// Buffers the message (stamping timestamp 0 with the clock) and flushes
  /// any partition that hit its record, byte, or linger budget.
  Status Produce(const Message& message);

  /// Flushes every partition with buffered or pending data.
  Status Flush();

  /// Flushes only partitions whose linger budget has expired. Call from a
  /// poll loop when traffic is sparse.
  Status MaybeFlushLinger();

  /// Records successfully acked by the bus.
  int64_t produced() const { return produced_; }
  /// Batches shipped (the produce amortization factor is produced/batches).
  int64_t batches_flushed() const { return batches_flushed_; }
  /// Records currently buffered or pending retry.
  int64_t buffered() const { return buffered_; }

 private:
  struct PartitionBuffer {
    wire::BatchBuilder builder;
    TimestampMs oldest_buffered_ms = 0;  ///< wall clock of the first buffered record
    std::optional<wire::EncodedBatch> pending;  ///< sealed but unacked batch
  };

  Status EnsurePartitions();
  Status FlushPartition(int32_t partition);

  MessageBus* bus_;
  std::string topic_;
  BatchingProducerOptions options_;
  Clock* clock_;
  std::vector<PartitionBuffer> buffers_;
  uint64_t round_robin_ = 0;
  int64_t produced_ = 0;
  int64_t batches_flushed_ = 0;
  int64_t buffered_ = 0;
};

}  // namespace uberrt::stream

#endif  // UBERRT_STREAM_PRODUCER_H_
