#ifndef UBERRT_COMMON_HASH_H_
#define UBERRT_COMMON_HASH_H_

#include <cstdint>
#include <string_view>

namespace uberrt {

inline constexpr uint64_t kFnv1a64Offset = 1469598103934665603ULL;

/// 64-bit FNV-1a. Used for partitioning keys across stream partitions and
/// OLAP upsert partitions; stable across runs so tests can assert placement.
/// Pass a previous result as `h` to continue hashing across pieces:
/// Fnv1a64(b, Fnv1a64(a)) == Fnv1a64(a + b).
inline uint64_t Fnv1a64(std::string_view data, uint64_t h = kFnv1a64Offset) {
  for (unsigned char c : data) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Maps a key to one of n partitions (n > 0).
inline uint32_t KeyToPartition(std::string_view key, uint32_t num_partitions) {
  return static_cast<uint32_t>(Fnv1a64(key) % num_partitions);
}

}  // namespace uberrt

#endif  // UBERRT_COMMON_HASH_H_
