#ifndef UBERRT_STREAM_DLQ_H_
#define UBERRT_STREAM_DLQ_H_

#include <cstdint>
#include <functional>
#include <string>

#include "common/status.h"
#include "stream/message_bus.h"

namespace uberrt::stream {

/// Dead-letter-queue strategy on top of the Kafka interface (Section 4.1.2).
///
/// Kafka natively offers only "drop" or "retry forever and clog the
/// partition" for unprocessable messages; Uber's DLQ keeps failed messages
/// in side topics so live traffic is never impeded and nothing is lost:
/// a failed message goes to `<topic>__retry` until `max_retries` is
/// exhausted, then to `<topic>__dlq`, whose content can later be merged
/// (re-injected into the main topic) or purged on demand.
struct DlqOptions {
  int32_t max_retries = 3;
};

class DlqManager {
 public:
  explicit DlqManager(MessageBus* bus, DlqOptions options = DlqOptions())
      : bus_(bus), options_(options) {}

  static std::string RetryTopic(const std::string& topic) { return topic + "__retry"; }
  static std::string DlqTopic(const std::string& topic) { return topic + "__dlq"; }

  /// Creates the retry and DLQ side topics mirroring the main topic's
  /// partition count. Idempotent.
  Status EnsureTopics(const std::string& topic);

  /// Routes a message that failed processing: to the retry topic while it
  /// has retry budget left, else to the DLQ topic. Updates the
  /// `retry_count` header.
  Status HandleFailure(const std::string& topic, Message message);

  /// Number of retries already consumed by this message (from its header);
  /// 0 when the header is missing, malformed, negative or out of range.
  static int32_t RetryCount(const Message& message);

  /// Re-injects every DLQ message into the main topic with a reset retry
  /// budget ("merge", i.e. retry on demand). Returns how many were merged.
  Result<int64_t> Merge(const std::string& topic, const std::string& consumer_group);

  /// Drops all DLQ content for the topic. Returns how many were purged.
  Result<int64_t> Purge(const std::string& topic, const std::string& consumer_group);

  /// Unconsumed messages currently parked in the DLQ topic.
  Result<int64_t> DlqDepth(const std::string& topic) const;

 private:
  Result<int64_t> DrainDlq(const std::string& topic, const std::string& consumer_group,
                           bool reinject);

  MessageBus* bus_;
  DlqOptions options_;
};

}  // namespace uberrt::stream

#endif  // UBERRT_STREAM_DLQ_H_
