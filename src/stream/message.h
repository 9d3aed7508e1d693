#ifndef UBERRT_STREAM_MESSAGE_H_
#define UBERRT_STREAM_MESSAGE_H_

#include <cstdint>
#include <map>
#include <string>

#include "common/clock.h"

namespace uberrt::stream {

/// One event in a topic partition.
///
/// `headers` carries the audit metadata the paper describes in Section 9.4
/// (unique identifier, application timestamp, service name, tier) that
/// Chaperone uses to track loss and duplication end to end.
struct Message {
  std::string key;
  std::string value;
  TimestampMs timestamp = 0;  ///< application/event timestamp
  std::map<std::string, std::string> headers;

  // Assigned by the broker at append time.
  int64_t offset = -1;
  int32_t partition = -1;

  /// Exact encoded size of this message's binary record frame (wire.h):
  /// length prefix + timestamp + length-prefixed key/value + header count +
  /// per-header length-prefixed key/value. This is the one authoritative
  /// byte accounting — wire::AppendFrame emits exactly this many bytes, and
  /// retention-by-bytes, broker metrics and the benches all derive from it.
  size_t FrameSize() const {
    size_t n = 4 + 8 + 4 + key.size() + 4 + value.size() + 4;
    for (const auto& [k, v] : headers) n += 8 + k.size() + v.size();
    return n;
  }
};

/// Standard header keys for audit metadata (Section 9.4).
inline constexpr char kHeaderUid[] = "uid";
inline constexpr char kHeaderService[] = "service";
inline constexpr char kHeaderTier[] = "tier";
inline constexpr char kHeaderRetryCount[] = "retry_count";

}  // namespace uberrt::stream

#endif  // UBERRT_STREAM_MESSAGE_H_
