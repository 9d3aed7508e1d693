#ifndef UBERRT_STREAM_ADMISSION_H_
#define UBERRT_STREAM_ADMISSION_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace uberrt::stream {

/// Traffic priority class for capacity admission (the load-shedding order of
/// "Uber's Failover Architecture": when a region is over budget, dashboards
/// are shed before surge pricing). Lower enum value = more important.
enum class Priority : int32_t {
  kCritical = 0,    ///< revenue / consistency-critical (payments, surge)
  kImportant = 1,   ///< product features that degrade gracefully
  kBestEffort = 2,  ///< dashboards, analytics, internal tooling
};

inline constexpr int32_t kNumPriorities = 3;

inline const char* PriorityName(Priority p) {
  switch (p) {
    case Priority::kCritical: return "critical";
    case Priority::kImportant: return "important";
    case Priority::kBestEffort: return "besteffort";
  }
  return "unknown";
}

/// Capacity admission consulted by the broker at the produce boundary,
/// before anything is appended. A non-Ok return rejects the produce with
/// nothing stored — kResourceExhausted means "shed, retry later" (the
/// message carries a retry-after hint), anything else is a hard gate.
/// Implementations must be thread-safe; the broker calls from any thread.
class ProduceAdmission {
 public:
  virtual ~ProduceAdmission() = default;

  /// `units` is the admission cost: the batch's record_count.
  virtual Status AdmitProduce(const std::string& topic, Priority priority,
                              int64_t units) = 0;
};

}  // namespace uberrt::stream

#endif  // UBERRT_STREAM_ADMISSION_H_
