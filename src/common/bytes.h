#ifndef UBERRT_COMMON_BYTES_H_
#define UBERRT_COMMON_BYTES_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace uberrt::bytes {

/// The one byte codec (DESIGN.md §6 "One byte codec"). Byte order is a
/// per-format decision, never a per-helper one:
///   - durable blobs (row, row batch, checkpoint, URT_SEG1 frame, segment
///     body) are little-endian: host order, so encoding is a memcpy;
///   - the stream wire (record frames, batch headers) is big-endian, the
///     network order Kafka's record batches use;
///   - OLAP group keys are big-endian, so memcmp order equals id order.
/// The little-endian formats and the CRC-32C fold in stream/wire.cc copy
/// host words as-is; this assertion states that assumption once.
static_assert(std::endian::native == std::endian::little,
              "durable formats are encoded in host order and assume little-endian");

// --- unchecked loads and stores (buffers already sized or validated) --------

inline uint32_t LoadLE32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

inline uint64_t LoadLE64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

inline uint32_t LoadBE32(const char* p) { return __builtin_bswap32(LoadLE32(p)); }
inline uint64_t LoadBE64(const char* p) { return __builtin_bswap64(LoadLE64(p)); }

/// Patches a reserved big-endian slot (e.g. a length prefix written last).
inline void StoreBE32(char* p, uint32_t v) {
  v = __builtin_bswap32(v);
  std::memcpy(p, &v, 4);
}

inline void StoreBE64(char* p, uint64_t v) {
  v = __builtin_bswap64(v);
  std::memcpy(p, &v, 8);
}

// --- appenders ----------------------------------------------------------------

inline void PutLE32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), 4);
}

inline void PutLE64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), 8);
}

inline void PutBE32(std::string* out, uint32_t v) { PutLE32(out, __builtin_bswap32(v)); }
inline void PutBE64(std::string* out, uint64_t v) { PutLE64(out, __builtin_bswap64(v)); }

/// Little-endian u32 length, then the bytes (the durable string encoding).
inline void PutString(std::string* out, std::string_view s) {
  PutLE32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

// --- bounds-checked reader ------------------------------------------------------

/// Cursor over an untrusted little-endian blob. Every read checks the
/// remaining length first; on overrun it returns false and leaves the
/// cursor where it was, so the caller reports its own Corruption.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data, size_t pos = 0)
      : data_(data), pos_(pos <= data.size() ? pos : data.size()) {}

  size_t pos() const { return pos_; }
  size_t remaining() const { return data_.size() - pos_; }

  bool Skip(size_t n) {
    if (n > remaining()) return false;
    pos_ += n;
    return true;
  }

  bool U8(uint8_t* out) {
    if (remaining() < 1) return false;
    *out = static_cast<uint8_t>(data_[pos_++]);
    return true;
  }

  bool U32(uint32_t* out) {
    if (remaining() < 4) return false;
    *out = LoadLE32(data_.data() + pos_);
    pos_ += 4;
    return true;
  }

  bool U64(uint64_t* out) {
    if (remaining() < 8) return false;
    *out = LoadLE64(data_.data() + pos_);
    pos_ += 8;
    return true;
  }

  /// A PutString field, as a view into the blob.
  bool String(std::string_view* out) {
    if (remaining() < 4) return false;
    const uint32_t len = LoadLE32(data_.data() + pos_);
    if (len > remaining() - 4) return false;
    *out = data_.substr(pos_ + 4, len);
    pos_ += 4 + static_cast<size_t>(len);
    return true;
  }

  bool String(std::string* out) {
    std::string_view view;
    if (!String(&view)) return false;
    out->assign(view);
    return true;
  }

 private:
  std::string_view data_;
  size_t pos_;
};

}  // namespace uberrt::bytes

#endif  // UBERRT_COMMON_BYTES_H_
