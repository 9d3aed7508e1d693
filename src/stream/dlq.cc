#include "stream/dlq.h"

#include <charconv>

#include "stream/producer.h"

namespace uberrt::stream {

Status DlqManager::EnsureTopics(const std::string& topic) {
  if (!bus_->HasTopic(topic)) return Status::NotFound("no topic: " + topic);
  Result<int32_t> partitions = bus_->NumPartitions(topic);
  if (!partitions.ok()) return partitions.status();
  TopicConfig config;
  config.num_partitions = partitions.value();
  for (const std::string& side : {RetryTopic(topic), DlqTopic(topic)}) {
    if (!bus_->HasTopic(side)) {
      Status s = bus_->CreateTopic(side, config);
      if (!s.ok() && !s.IsAlreadyExists()) return s;
    }
  }
  return Status::Ok();
}

int32_t DlqManager::RetryCount(const Message& message) {
  auto it = message.headers.find(kHeaderRetryCount);
  if (it == message.headers.end()) return 0;
  // The header comes from the producer: a malformed, out-of-range or
  // negative count restarts the budget rather than throwing on a proxy
  // worker or wrapping around.
  const std::string& text = it->second;
  int32_t count = 0;
  auto [end, error] = std::from_chars(text.data(), text.data() + text.size(), count);
  if (error != std::errc() || end != text.data() + text.size() || count < 0) return 0;
  return count;
}

Status DlqManager::HandleFailure(const std::string& topic, Message message) {
  int32_t retries = RetryCount(message);
  message.headers[kHeaderRetryCount] = std::to_string(int64_t{retries} + 1);
  const std::string target =
      retries < options_.max_retries ? RetryTopic(topic) : DlqTopic(topic);
  return ProduceOne(bus_, target, message).status();
}

Result<int64_t> DlqManager::DrainDlq(const std::string& topic,
                                     const std::string& consumer_group,
                                     bool reinject) {
  const std::string dlq = DlqTopic(topic);
  Result<int32_t> partitions = bus_->NumPartitions(dlq);
  if (!partitions.ok()) return partitions.status();
  int64_t handled = 0;
  BatchingProducer reinjected(bus_, topic);
  for (int32_t p = 0; p < partitions.value(); ++p) {
    int64_t position;
    Result<int64_t> committed = bus_->CommittedOffset(consumer_group, dlq, p);
    if (committed.ok()) {
      position = committed.value();
    } else {
      Result<int64_t> begin = bus_->BeginOffset(dlq, p);
      if (!begin.ok()) return begin.status();
      position = begin.value();
    }
    while (true) {
      Result<FetchedBatch> batch = bus_->FetchViews(dlq, p, position, 256);
      if (!batch.ok()) return batch.status();
      if (batch.value().empty()) break;
      for (const wire::MessageView& view : batch.value().messages) {
        position = view.offset + 1;
        ++handled;
        if (reinject) {
          // Re-produce needs ownership: the retry header is rewritten.
          Message m = view.ToMessage();
          m.headers[kHeaderRetryCount] = "0";
          UBERRT_RETURN_IF_ERROR(reinjected.Produce(m));
        }
      }
    }
    // Reinjected messages are durable before the DLQ position moves past
    // them.
    UBERRT_RETURN_IF_ERROR(reinjected.Flush());
    UBERRT_RETURN_IF_ERROR(bus_->CommitOffset(consumer_group, dlq, p, position));
  }
  return handled;
}

Result<int64_t> DlqManager::Merge(const std::string& topic,
                                  const std::string& consumer_group) {
  return DrainDlq(topic, consumer_group, /*reinject=*/true);
}

Result<int64_t> DlqManager::Purge(const std::string& topic,
                                  const std::string& consumer_group) {
  return DrainDlq(topic, consumer_group, /*reinject=*/false);
}

Result<int64_t> DlqManager::DlqDepth(const std::string& topic) const {
  const std::string dlq = DlqTopic(topic);
  Result<int32_t> partitions = bus_->NumPartitions(dlq);
  if (!partitions.ok()) return partitions.status();
  int64_t depth = 0;
  for (int32_t p = 0; p < partitions.value(); ++p) {
    Result<int64_t> begin = bus_->BeginOffset(dlq, p);
    Result<int64_t> end = bus_->EndOffset(dlq, p);
    if (!begin.ok()) return begin.status();
    if (!end.ok()) return end.status();
    depth += end.value() - begin.value();
  }
  return depth;
}

}  // namespace uberrt::stream
