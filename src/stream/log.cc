#include "stream/log.h"

#include <algorithm>

namespace uberrt::stream {

namespace {

Status ValidateForAppend(const wire::EncodedBatch& batch) {
  if (batch.record_count == 0) {
    return Status::InvalidArgument("empty batch");
  }
  UBERRT_RETURN_IF_ERROR(wire::ValidateBatch(batch.data));
  if (wire::ReadU32(batch.data.data() + 4) != batch.record_count) {
    return Status::InvalidArgument("batch record_count does not match header");
  }
  return Status::Ok();
}

}  // namespace

int64_t PartitionLog::AppendBatchLocked(const wire::EncodedBatch& batch) {
  size_t need = batch.data.size();
  if (!arena_ || arena_->size() + need > arena_->capacity()) {
    // Fixed-capacity arenas: appends never exceed the reserved capacity, so
    // the data pointer is stable for the segment's lifetime and outstanding
    // views never dangle.
    arena_ = std::make_shared<std::string>();
    arena_->reserve(std::max(need, options_.segment_bytes));
  }
  BatchMeta meta;
  meta.arena = arena_;
  meta.begin = static_cast<uint32_t>(arena_->size());
  arena_->append(batch.data);  // the one memcpy
  meta.end = static_cast<uint32_t>(arena_->size());
  meta.base_offset = end_offset_;
  meta.count = batch.record_count;
  hwm_timestamp_ = std::max(hwm_timestamp_, batch.max_timestamp);
  meta.hwm_timestamp = hwm_timestamp_;
  int64_t base = end_offset_;
  end_offset_ += batch.record_count;
  bytes_ += static_cast<int64_t>(need);
  batches_.push_back(std::move(meta));
  return base;
}

Result<int64_t> PartitionLog::AppendBatch(const wire::EncodedBatch& batch) {
  UBERRT_RETURN_IF_ERROR(ValidateForAppend(batch));
  std::lock_guard<std::mutex> lock(mu_);
  return AppendBatchLocked(batch);
}

Status PartitionLog::AppendBatchAt(int64_t base_offset, const wire::EncodedBatch& batch) {
  UBERRT_RETURN_IF_ERROR(ValidateForAppend(batch));
  std::lock_guard<std::mutex> lock(mu_);
  if (base_offset != end_offset_) {
    return Status::InvalidArgument("offset gap: expected " + std::to_string(end_offset_) +
                                   " got " + std::to_string(base_offset));
  }
  AppendBatchLocked(batch);
  return Status::Ok();
}

Status PartitionLog::StartAt(int64_t offset) {
  if (offset < 0) return Status::InvalidArgument("negative start offset");
  std::lock_guard<std::mutex> lock(mu_);
  if (end_offset_ != 0) {
    return Status::FailedPrecondition("log already starts at " +
                                      std::to_string(begin_offset_));
  }
  begin_offset_ = end_offset_ = offset;
  return Status::Ok();
}

Result<FetchedBatch> PartitionLog::ReadViews(int64_t offset,
                                             size_t max_messages) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (offset < begin_offset_) {
    return Status::OutOfRange("offset " + std::to_string(offset) +
                              " below begin offset " + std::to_string(begin_offset_));
  }
  if (offset > end_offset_) {
    return Status::OutOfRange("offset " + std::to_string(offset) +
                              " beyond end offset " + std::to_string(end_offset_));
  }
  FetchedBatch out;
  if (offset == end_offset_ || max_messages == 0) return out;
  // Locate the batch containing `offset`.
  auto it = std::upper_bound(
      batches_.begin(), batches_.end(), offset,
      [](int64_t off, const BatchMeta& b) { return off < b.base_offset; });
  --it;  // offset >= begin_offset_ guarantees a containing batch exists
  out.messages.reserve(std::min<size_t>(
      max_messages, static_cast<size_t>(end_offset_ - offset)));
  int64_t cur = offset;
  for (; it != batches_.end() && out.messages.size() < max_messages; ++it) {
    const BatchMeta& b = *it;
    if (out.pins.empty() || out.pins.back() != b.arena) out.pins.push_back(b.arena);
    std::string_view arena(b.arena->data(), b.end);
    // Seek within the batch by hopping length prefixes — reads almost always
    // start at a batch boundary, so this loop rarely iterates.
    size_t pos = b.begin + wire::kBatchHeaderSize;
    for (int64_t skip = cur - b.base_offset; skip > 0; --skip) {
      pos += 4 + wire::ReadU32(arena.data() + pos);
    }
    // Frames were validated structurally at append time; decode untrusted
    // checks would be pure overhead on the fetch hot path.
    for (size_t ri = static_cast<size_t>(cur - b.base_offset);
         ri < b.count && out.messages.size() < max_messages; ++ri, ++cur) {
      wire::MessageView view = wire::DecodeFrameTrusted(arena, &pos);
      view.offset = cur;
      out.messages.push_back(view);
    }
  }
  return out;
}

int64_t PartitionLog::BeginOffset() const {
  std::lock_guard<std::mutex> lock(mu_);
  return begin_offset_;
}

int64_t PartitionLog::EndOffset() const {
  std::lock_guard<std::mutex> lock(mu_);
  return end_offset_;
}

int64_t PartitionLog::Size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return end_offset_ - begin_offset_;
}

int64_t PartitionLog::Bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

int64_t PartitionLog::ApplyRetention(const RetentionPolicy& policy, TimestampMs now) {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t dropped = 0;
  auto drop_front = [&] {
    const BatchMeta& b = batches_.front();
    bytes_ -= static_cast<int64_t>(b.end - b.begin);
    begin_offset_ += b.count;
    dropped += b.count;
    batches_.pop_front();
  };
  if (policy.max_age_ms > 0) {
    // Strictly by append order: the monotone watermark means a non-expired
    // batch also fences every batch behind it, and a late-arriving old
    // timestamp inherits the watermark of the data appended before it.
    while (!batches_.empty() &&
           batches_.front().hwm_timestamp < now - policy.max_age_ms) {
      drop_front();
    }
  }
  if (policy.max_bytes > 0) {
    // Never drop the newest batch: the active segment stays readable even
    // when a single batch exceeds the byte budget, so an acked produce is
    // never silently truncated by its own arrival.
    while (batches_.size() > 1 && bytes_ > policy.max_bytes) drop_front();
  }
  return dropped;
}

}  // namespace uberrt::stream
