#include "stream/producer.h"

#include "common/hash.h"

namespace uberrt::stream {

namespace {

/// The shared partition rule: the explicit partition, else the key hash,
/// else -1 (keyless; the caller round-robins).
int32_t PartitionFor(const Message& message, int32_t num_partitions) {
  if (message.partition >= 0 || message.key.empty()) return message.partition;
  return static_cast<int32_t>(
      KeyToPartition(message.key, static_cast<uint32_t>(num_partitions)));
}

/// Encodes `message` into `builder`, stamping a zero timestamp with `now`.
void AddStamped(wire::BatchBuilder& builder, const Message& message, TimestampMs now) {
  if (message.timestamp != 0) {
    builder.Add(message);
    return;
  }
  Message stamped = message;
  stamped.timestamp = now;
  builder.Add(stamped);
}

}  // namespace

Result<ProduceResult> ProduceOne(MessageBus* bus, const std::string& topic,
                                 const Message& message, AckMode ack,
                                 Priority priority) {
  int32_t partition = message.partition;
  if (partition < 0 && !message.key.empty()) {
    Result<int32_t> n = bus->NumPartitions(topic);
    if (!n.ok()) return n.status();
    partition = PartitionFor(message, n.value());
  }
  wire::BatchBuilder builder;
  AddStamped(builder, message, SystemClock::Instance()->NowMs());
  return bus->ProduceBatch(topic, partition, builder.Finish(), ack, priority);
}

BatchingProducer::BatchingProducer(MessageBus* bus, std::string topic,
                                   BatchingProducerOptions options, Clock* clock)
    : bus_(bus), topic_(std::move(topic)), options_(options), clock_(clock) {}

BatchingProducer::~BatchingProducer() { Flush().ok(); }

Status BatchingProducer::EnsurePartitions() {
  if (!buffers_.empty()) return Status::Ok();
  Result<int32_t> n = bus_->NumPartitions(topic_);
  if (!n.ok()) return n.status();
  if (n.value() <= 0) return Status::Internal("topic has no partitions");
  buffers_.resize(static_cast<size_t>(n.value()));
  return Status::Ok();
}

Status BatchingProducer::Produce(const Message& message) {
  UBERRT_RETURN_IF_ERROR(EnsurePartitions());
  int32_t num_partitions = static_cast<int32_t>(buffers_.size());
  int32_t partition = PartitionFor(message, num_partitions);
  if (partition < 0) {
    partition = static_cast<int32_t>(round_robin_++ %
                                     static_cast<uint64_t>(num_partitions));
  }
  if (partition >= num_partitions) {
    return Status::InvalidArgument("partition out of range");
  }
  PartitionBuffer& buf = buffers_[static_cast<size_t>(partition)];
  TimestampMs now = clock_->NowMs();
  if (buf.builder.empty()) buf.oldest_buffered_ms = now;
  AddStamped(buf.builder, message, now);
  ++buffered_;
  if (buf.builder.count() >= options_.batch_records ||
      buf.builder.payload_bytes() >= options_.batch_bytes ||
      (options_.linger_ms > 0 && now - buf.oldest_buffered_ms >= options_.linger_ms)) {
    return FlushPartition(partition);
  }
  return Status::Ok();
}

Status BatchingProducer::FlushPartition(int32_t partition) {
  PartitionBuffer& buf = buffers_[static_cast<size_t>(partition)];
  // Ship the retry of a previously failed batch before sealing new data, so
  // partition order is preserved across transient outages.
  if (buf.pending.has_value()) {
    Result<ProduceResult> retried =
        bus_->ProduceBatch(topic_, partition, *buf.pending, options_.ack);
    if (!retried.ok()) return retried.status();
    produced_ += buf.pending->record_count;
    buffered_ -= buf.pending->record_count;
    ++batches_flushed_;
    buf.pending.reset();
  }
  if (buf.builder.empty()) return Status::Ok();
  wire::EncodedBatch batch = buf.builder.Finish();
  Result<ProduceResult> produced =
      bus_->ProduceBatch(topic_, partition, batch, options_.ack);
  if (!produced.ok()) {
    buf.pending = std::move(batch);  // retried on the next flush
    return produced.status();
  }
  produced_ += batch.record_count;
  buffered_ -= batch.record_count;
  ++batches_flushed_;
  return Status::Ok();
}

Status BatchingProducer::Flush() {
  Status first_error = Status::Ok();
  for (size_t p = 0; p < buffers_.size(); ++p) {
    Status s = FlushPartition(static_cast<int32_t>(p));
    if (!s.ok() && first_error.ok()) first_error = s;
  }
  return first_error;
}

Status BatchingProducer::MaybeFlushLinger() {
  if (options_.linger_ms <= 0) return Status::Ok();
  TimestampMs now = clock_->NowMs();
  Status first_error = Status::Ok();
  for (size_t p = 0; p < buffers_.size(); ++p) {
    PartitionBuffer& buf = buffers_[p];
    if (buf.pending.has_value() ||
        (!buf.builder.empty() &&
         now - buf.oldest_buffered_ms >= options_.linger_ms)) {
      Status s = FlushPartition(static_cast<int32_t>(p));
      if (!s.ok() && first_error.ok()) first_error = s;
    }
  }
  return first_error;
}

}  // namespace uberrt::stream
