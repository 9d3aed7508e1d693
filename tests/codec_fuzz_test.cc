// Byte-level fuzz of every durable-blob and wire decoder. Each decoder gets
// a valid blob cut at every length and at least 1000 seeded single-byte
// flips of it. Every decode must return Ok or Corruption: it must not crash
// (ASan/UBSan builds make an out-of-bounds read fatal), throw, or make an
// allocation out of proportion to the blob it was given. The allocation
// bound is enforced by the replaceable global operator new below, which
// refuses (and counts) any single request above the current limit instead
// of trying to satisfy it.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <new>

#include "common/bytes.h"
#include "common/rng.h"
#include "common/value.h"
#include "compute/checkpoint.h"
#include "olap/lifecycle.h"
#include "olap/segment.h"
#include "storage/archive.h"
#include "stream/message.h"
#include "stream/wire.h"

namespace {

std::atomic<size_t> g_alloc_limit{0};  ///< 0 = unlimited
std::atomic<size_t> g_over_limit{0};

}  // namespace

namespace {

void* BoundedAlloc(std::size_t n) noexcept {
  const size_t limit = g_alloc_limit.load(std::memory_order_relaxed);
  if (limit != 0 && n > limit) {
    g_over_limit.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  return std::malloc(n == 0 ? 1 : n);
}

void* BoundedAllocOrThrow(std::size_t n) {
  if (void* p = BoundedAlloc(n)) return p;
  throw std::bad_alloc();
}

}  // namespace

// Every non-aligned form is replaced so that allocation and release always
// pair malloc with free (sanitizer runtimes check the pairing).
void* operator new(std::size_t n) { return BoundedAllocOrThrow(n); }
void* operator new[](std::size_t n) { return BoundedAllocOrThrow(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return BoundedAlloc(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return BoundedAlloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace uberrt {
namespace {

constexpr int kFlips = 1000;
/// A decode may size containers from what the blob encodes (a dictionary of
/// Values, a row vector, a bitmap), so allocations scale with the blob; the
/// bound rejects only sizes no valid blob of that length could imply.
constexpr size_t kAllocPerBlobByte = 64;
constexpr size_t kAllocSlack = 64 << 10;

using Decoder = std::function<Status(const std::string&)>;

/// Runs one decode under the allocation bound; fails the test on a thrown
/// exception, an over-limit allocation or a status other than Ok/Corruption.
void CheckDecode(const char* what, const Decoder& decode, const std::string& blob,
                 const std::string& variant) {
  g_over_limit.store(0);
  g_alloc_limit.store(blob.size() * kAllocPerBlobByte + kAllocSlack);
  Status status;
  bool threw = false;
  try {
    status = decode(blob);
  } catch (...) {
    threw = true;
  }
  g_alloc_limit.store(0);
  ASSERT_EQ(g_over_limit.load(), 0u) << what << " over-allocated on " << variant;
  ASSERT_FALSE(threw) << what << " threw on " << variant;
  ASSERT_TRUE(status.ok() || status.IsCorruption())
      << what << " on " << variant << ": " << status.ToString();
}

/// Every truncation of `blob`, then kFlips seeded single-byte flips. The
/// intact blob must decode Ok. `fixup` (optional) re-seals a mutated blob,
/// e.g. recomputing a checksum so the structural walk behind it is reached.
void Fuzz(const char* what, const Decoder& decode, const std::string& blob,
          uint64_t seed,
          const std::function<void(std::string*)>& fixup = nullptr) {
  ASSERT_TRUE(decode(blob).ok()) << what << " rejects its own valid blob";
  for (size_t len = 0; len < blob.size(); ++len) {
    std::string cut = blob.substr(0, len);
    if (fixup) fixup(&cut);
    CheckDecode(what, decode, cut, "truncation to " + std::to_string(len));
    if (::testing::Test::HasFatalFailure()) return;
  }
  Rng rng(seed);
  for (int i = 0; i < kFlips; ++i) {
    std::string flipped = blob;
    const auto pos =
        static_cast<size_t>(rng.Uniform(0, static_cast<int64_t>(blob.size()) - 1));
    flipped[pos] = static_cast<char>(flipped[pos] ^ rng.Uniform(1, 255));
    if (fixup) fixup(&flipped);
    CheckDecode(what, decode, flipped, "flip at byte " + std::to_string(pos));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

Row SampleRow(int i) {
  return Row{Value::Null(), Value(static_cast<int64_t>(-7 * i)), Value(2.5 * i),
             Value("row-" + std::to_string(i)), Value(i % 2 == 0)};
}

TEST(CodecFuzzTest, DecodeRow) {
  Fuzz("DecodeRow", [](const std::string& b) { return DecodeRow(b).status(); },
       EncodeRow(SampleRow(3)), 1);
}

TEST(CodecFuzzTest, DecodeRowBatch) {
  std::vector<Row> rows;
  for (int i = 0; i < 4; ++i) rows.push_back(SampleRow(i));
  Fuzz("DecodeRowBatch",
       [](const std::string& b) { return storage::DecodeRowBatch(b).status(); },
       storage::EncodeRowBatch(rows), 2);
}

TEST(CodecFuzzTest, CheckpointDataDecode) {
  compute::CheckpointData data;
  data.sequence = 42;
  data.entries["source.0.0"] = "1234";
  data.entries["source.0.1"] = "99";
  data.entries["op.1.0"] = std::string("\x00\x01\x02state", 8);
  Fuzz("CheckpointData::Decode",
       [](const std::string& b) { return compute::CheckpointData::Decode(b).status(); },
       data.Encode(), 3);
}

// --- URT_SEG1 frames ------------------------------------------------------------

RowSchema FrameSchema() {
  return RowSchema({{"city", ValueType::kString},
                    {"rides", ValueType::kInt},
                    {"fare", ValueType::kDouble},
                    {"ok", ValueType::kBool}});
}

std::shared_ptr<olap::Segment> SampleSegment(bool packed) {
  std::vector<Row> rows;
  for (int i = 0; i < 12; ++i) {
    rows.push_back({Value(i % 3 == 0 ? "sf" : (i % 3 == 1 ? "nyc" : "la")),
                    Value(static_cast<int64_t>(i * 5)), Value(1.25 * i),
                    Value(i % 4 == 0)});
  }
  olap::SegmentIndexConfig config;
  config.bit_packed_forward_index = packed;
  if (packed) {
    config.inverted_columns = {"city"};
    config.sorted_column = "rides";
    config.star_tree_dimensions = {"city"};
    config.star_tree_metrics = {"fare"};
  }
  auto segment = olap::Segment::Build("seg", FrameSchema(), std::move(rows), config);
  EXPECT_TRUE(segment.ok()) << segment.status().ToString();
  return segment.value();
}

std::vector<std::string> SampleFrames() {
  std::vector<std::string> frames;
  for (bool packed : {true, false}) {
    olap::SegmentFrame frame;
    frame.seq = 5;
    frame.min_time = 1000;
    frame.max_time = 2000;
    frame.segment = SampleSegment(packed);
    if (packed) {
      frame.validity = std::make_shared<std::vector<bool>>(12, true);
      (*frame.validity)[3] = false;
    }
    frames.push_back(olap::EncodeSegmentFrame(frame));
  }
  // A legacy bare segment blob (no frame header) decodes too.
  frames.push_back(SampleSegment(true)->Serialize());
  return frames;
}

Status DecodeFrameEager(const std::string& blob) {
  return olap::DecodeSegmentFrame(blob).status();
}

Status DecodeFrameLazyAllColumns(const std::string& blob) {
  auto segment = olap::DecodeSegmentFrameLazy(std::make_shared<const std::string>(blob));
  if (!segment.ok()) return segment.status();
  return segment.value()->EnsureAllColumns();
}

TEST(CodecFuzzTest, DecodeSegmentFrame) {
  uint64_t seed = 10;
  for (const std::string& frame : SampleFrames()) {
    Fuzz("DecodeSegmentFrame", DecodeFrameEager, frame, seed++);
    if (HasFatalFailure()) return;
  }
}

TEST(CodecFuzzTest, DecodeSegmentFrameLazyThenEveryColumn) {
  uint64_t seed = 20;
  for (const std::string& frame : SampleFrames()) {
    Fuzz("DecodeSegmentFrameLazy+EnsureAllColumns", DecodeFrameLazyAllColumns, frame,
         seed++);
    if (HasFatalFailure()) return;
  }
}

TEST(CodecFuzzTest, ValidityBitCountNearTwoToThe64IsCorruption) {
  // Frame header: magic, seq, min_time, max_time, has_validity, num_bits
  // (six little-endian u64s), so num_bits sits at byte 40.
  // A num_bits within 63 of 2^64 used to wrap the word count to zero, pass
  // the size check and size a vector<bool> from the raw value; with the one
  // validity word dropped, the lazy decoder then accepted the frame.
  olap::SegmentFrame frame;
  frame.segment = SampleSegment(true);
  frame.validity = std::make_shared<std::vector<bool>>(12, true);
  std::string blob = olap::EncodeSegmentFrame(frame);
  for (uint64_t num_bits : {~uint64_t{0} - 10, ~uint64_t{0}, uint64_t{1} << 63,
                            uint64_t{12} + 64 * 1024}) {
    std::string hostile = blob.substr(0, 40);
    bytes::PutLE64(&hostile, num_bits);
    hostile.append(blob, 56);  // drop the one validity word
    CheckDecode("DecodeSegmentFrame", DecodeFrameEager, hostile, "hostile num_bits");
    if (HasFatalFailure()) return;
    EXPECT_TRUE(DecodeFrameEager(hostile).IsCorruption());
    CheckDecode("DecodeSegmentFrameLazy", DecodeFrameLazyAllColumns, hostile,
                "hostile num_bits");
    if (HasFatalFailure()) return;
    EXPECT_TRUE(DecodeFrameLazyAllColumns(hostile).IsCorruption());
  }
}

// --- stream wire ------------------------------------------------------------------

std::string SampleBatch() {
  stream::wire::BatchBuilder builder;
  for (int i = 0; i < 3; ++i) {
    stream::Message m;
    const std::string n(1, static_cast<char>('0' + i));
    m.key = "k" + n;
    m.value = EncodeRow(SampleRow(i));
    m.timestamp = 100 + i;
    m.headers["uid"] = "u-" + n;
    if (i == 1) m.headers["service"] = "rides";
    builder.Add(m);
  }
  return builder.Finish().data;
}

/// ValidateBatch, and on Ok the trusted walk the log serves views from: a
/// batch that validates must be safe to decode without checks.
Status ValidateThenWalk(const std::string& batch) {
  namespace wire = stream::wire;
  UBERRT_RETURN_IF_ERROR(wire::ValidateBatch(batch));
  const auto begin = reinterpret_cast<uintptr_t>(batch.data());
  auto inside = [&](std::string_view v) {
    const auto at = reinterpret_cast<uintptr_t>(v.data());
    return at >= begin && at + v.size() <= begin + batch.size();
  };
  const uint32_t count = bytes::LoadBE32(batch.data() + 4);
  size_t pos = wire::kBatchHeaderSize;
  for (uint32_t i = 0; i < count; ++i) {
    wire::MessageView view = wire::DecodeFrameTrusted(batch, &pos);
    if (pos > batch.size() || !inside(view.raw_frame) || !inside(view.key) ||
        !inside(view.value) || !inside(view.headers_raw)) {
      return Status::Internal("trusted walk left the batch");
    }
    view.ToMessage();  // walks the header entries
  }
  if (pos != batch.size()) return Status::Internal("validated batch has trailing bytes");
  return Status::Ok();
}

/// Re-seals the CRC so a flip reaches the structural frame walk.
void ResealCrc(std::string* batch) {
  namespace wire = stream::wire;
  if (batch->size() < wire::kBatchHeaderSize) return;
  bytes::StoreBE32(&(*batch)[12], wire::Crc32(std::string_view(*batch).substr(
                                      wire::kBatchHeaderSize)));
}

TEST(CodecFuzzTest, ValidateBatch) {
  const std::string batch = SampleBatch();
  Fuzz("ValidateBatch", ValidateThenWalk, batch, 30);
  if (HasFatalFailure()) return;
  Fuzz("ValidateBatch (CRC resealed)", ValidateThenWalk, batch, 31, ResealCrc);
}

}  // namespace
}  // namespace uberrt
