#include "olap/segment.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <mutex>
#include <functional>
#include <numeric>
#include <ranges>
#include <string_view>
#include <utility>

#include "common/bytes.h"
#include "common/hash.h"

namespace uberrt::olap {

namespace {

int64_t ValueMemoryBytes(const Value& v) {
  int64_t bytes = static_cast<int64_t>(sizeof(Value));
  if (v.type() == ValueType::kString) bytes += static_cast<int64_t>(v.AsString().size());
  return bytes;
}

/// Coerces a cell to the column's declared type (ingest normalization).
Value CoerceTo(ValueType type, const Value& v) {
  if (v.is_null() || v.type() == type) return v;
  switch (type) {
    case ValueType::kInt:
      return Value(static_cast<int64_t>(v.ToNumeric()));
    case ValueType::kDouble:
      return Value(v.ToNumeric());
    case ValueType::kBool:
      return Value(v.ToNumeric() != 0.0);
    case ValueType::kString:
      return Value(v.ToString());
    case ValueType::kNull:
      return v;
  }
  return v;
}

}  // namespace

// --- BitPackedVector ------------------------------------------------------

BitPackedVector::BitPackedVector(const std::vector<uint32_t>& values,
                                 uint32_t max_value) {
  bits_ = 1;
  while ((1ULL << bits_) <= max_value) ++bits_;
  size_ = values.size();
  words_.assign((size_ * static_cast<size_t>(bits_) + 63) / 64, 0);
  for (size_t i = 0; i < values.size(); ++i) {
    size_t bit = i * static_cast<size_t>(bits_);
    size_t word = bit / 64;
    int shift = static_cast<int>(bit % 64);
    words_[word] |= static_cast<uint64_t>(values[i]) << shift;
    if (shift + bits_ > 64) {
      words_[word + 1] |= static_cast<uint64_t>(values[i]) >> (64 - shift);
    }
  }
}

uint32_t BitPackedVector::Get(size_t index) const {
  size_t bit = index * static_cast<size_t>(bits_);
  size_t word = bit / 64;
  int shift = static_cast<int>(bit % 64);
  uint64_t v = words_[word] >> shift;
  if (shift + bits_ > 64) v |= words_[word + 1] << (64 - shift);
  return static_cast<uint32_t>(v & ((1ULL << bits_) - 1));
}

void BitPackedVector::Unpack(size_t start, size_t count, uint32_t* out) const {
  const uint64_t mask = (1ULL << bits_) - 1;
  const size_t bits = static_cast<size_t>(bits_);
  size_t bit = start * bits;
  for (size_t i = 0; i < count; ++i, bit += bits) {
    size_t word = bit >> 6;
    size_t shift = bit & 63;
    uint64_t v = words_[word] >> shift;
    if (shift + bits > 64) v |= words_[word + 1] << (64 - shift);
    out[i] = static_cast<uint32_t>(v & mask);
  }
}

Result<BitPackedVector> BitPackedVector::FromWords(int bits, size_t size,
                                                   std::vector<uint64_t> words) {
  if (bits < 1 || bits > 32) {
    return Status::Corruption("bit-packed vector: bad bit width");
  }
  if (size > (std::numeric_limits<size_t>::max() - 63) / static_cast<size_t>(bits)) {
    return Status::Corruption("bit-packed vector: size overflow");
  }
  if (words.size() != (size * static_cast<size_t>(bits) + 63) / 64) {
    return Status::Corruption("bit-packed vector: word count mismatch");
  }
  BitPackedVector v;
  v.bits_ = bits;
  v.size_ = size;
  v.words_ = std::move(words);
  return v;
}

// --- AggAccumulator helpers (shared partial-aggregate layout) -------------

void AggAccumulator::Add(double v) {
  if (count == 0) {
    min = v;
    max = v;
  } else {
    if (v < min) min = v;
    if (v > max) max = v;
  }
  ++count;
  sum += v;
}

void AggAccumulator::Merge(const AggAccumulator& other) {
  if (other.count == 0) return;
  if (count == 0) {
    *this = other;
    return;
  }
  count += other.count;
  sum += other.sum;
  if (other.min < min) min = other.min;
  if (other.max > max) max = other.max;
}

Value AggAccumulator::Finalize(OlapAggregation::Kind kind) const {
  switch (kind) {
    case OlapAggregation::Kind::kCount: return Value(count);
    case OlapAggregation::Kind::kSum: return Value(sum);
    case OlapAggregation::Kind::kMin: return Value(count == 0 ? 0.0 : min);
    case OlapAggregation::Kind::kMax: return Value(count == 0 ? 0.0 : max);
    case OlapAggregation::Kind::kAvg:
      return Value(count == 0 ? 0.0 : sum / static_cast<double>(count));
  }
  return Value::Null();
}

void AppendAccumulator(Row* row, const AggAccumulator& acc) {
  row->push_back(Value(acc.count));
  row->push_back(Value(acc.sum));
  row->push_back(Value(acc.min));
  row->push_back(Value(acc.max));
}

Result<AggAccumulator> ReadAccumulator(const Row& row, size_t offset) {
  if (offset + 4 > row.size()) return Status::Corruption("partial row too short");
  AggAccumulator acc;
  acc.count = row[offset].AsInt();
  acc.sum = row[offset + 1].AsDouble();
  acc.min = row[offset + 2].AsDouble();
  acc.max = row[offset + 3].AsDouble();
  return acc;
}

// --- Segment build ---------------------------------------------------------

void Segment::Column::UnpackRange(size_t start, size_t count, uint32_t* out) const {
  if (!plain.empty()) {
    std::memcpy(out, plain.data() + start, count * sizeof(uint32_t));
  } else {
    packed.Unpack(start, count, out);
  }
}

void Segment::Column::BuildDictNumeric() {
  dict_numeric.resize(dictionary.size());
  for (size_t i = 0; i < dictionary.size(); ++i) {
    dict_numeric[i] = dictionary[i].ToNumeric();
  }
}

int64_t Segment::Column::MemoryBytes() const {
  int64_t bytes = 64;
  for (const Value& v : dictionary) bytes += ValueMemoryBytes(v);
  bytes += packed.MemoryBytes();
  bytes += static_cast<int64_t>(plain.capacity() * sizeof(uint32_t));
  if (has_inverted) {
    for (const auto& list : inverted) {
      bytes += static_cast<int64_t>(list.capacity() * sizeof(uint32_t)) + 24;
    }
  }
  return bytes;
}

namespace {

/// Dictionary-encodes one column by sorting (key, row) pairs. The sort is
/// stable, so each run of equivalent keys starts with the first-seen member
/// of its class: the member an ordered set fed in row order would keep. One
/// walk over the runs assigns ids (`ids[row]`) and records each run head's
/// row (`heads[id]`). A merge sort also stays in range when `less` is no
/// strict weak order (NaN).
template <typename Key, typename Less>
void EncodeRuns(std::vector<std::pair<Key, uint32_t>>* entries, Less less,
                std::vector<uint32_t>* ids, std::vector<uint32_t>* heads) {
  std::stable_sort(entries->begin(), entries->end(), [&less](const auto& a, const auto& b) {
    return less(a.first, b.first);
  });
  uint32_t id = 0;
  for (size_t k = 0; k < entries->size(); ++k) {
    const auto& [key, row] = (*entries)[k];
    if (k == 0 || less((*entries)[k - 1].first, key)) {
      id = static_cast<uint32_t>(heads->size());
      heads->push_back(row);
    }
    (*ids)[row] = id;
  }
}

}  // namespace

Result<std::shared_ptr<Segment>> Segment::Build(std::string name, RowSchema schema,
                                                std::vector<Row>&& rows,
                                                SegmentIndexConfig config) {
  // Validate before touching `rows`: a failed build leaves them intact.
  const size_t num_cols = schema.NumFields();
  for (const Row& row : rows) {
    if (row.size() != num_cols) {
      return Status::InvalidArgument("row width mismatch in segment build");
    }
  }
  int sorted_idx = -1;
  if (!config.sorted_column.empty()) {
    sorted_idx = schema.FieldIndex(config.sorted_column);
    if (sorted_idx < 0) return Status::InvalidArgument("sorted column not in schema");
  }

  auto segment = std::shared_ptr<Segment>(new Segment());
  segment->name_ = std::move(name);
  segment->schema_ = std::move(schema);
  segment->config_ = config;
  segment->sorted_column_ = sorted_idx;
  if (sorted_idx >= 0) {
    const auto idx = static_cast<size_t>(sorted_idx);
    std::stable_sort(rows.begin(), rows.end(),
                     [idx](const Row& a, const Row& b) { return a[idx] < b[idx]; });
  }
  const size_t num_rows = rows.size();
  segment->num_rows_ = num_rows;

  // Dictionary-encode each column. Cells are coerced in place and the run
  // heads are moved into the dictionary: the rows are consumed from here on.
  segment->columns_.resize(num_cols);
  std::vector<std::pair<double, uint32_t>> numeric;
  std::vector<std::pair<std::string_view, uint32_t>> strings;
  std::vector<std::pair<const Value*, uint32_t>> cells;
  std::vector<uint32_t> heads;
  for (size_t c = 0; c < num_cols; ++c) {
    Column& column = segment->columns_[c];
    column.type = segment->schema_.fields()[c].type;
    bool has_null = false;
    for (Row& row : rows) {
      Value& v = row[c];
      if (v.is_null()) {
        has_null = true;
      } else if (v.type() != column.type) {
        v = CoerceTo(column.type, v);
      }
    }
    std::vector<uint32_t> ids(num_rows);
    heads.clear();
    if (!has_null && (column.type == ValueType::kInt ||
                      column.type == ValueType::kDouble ||
                      column.type == ValueType::kBool)) {
      // Numeric cells compare by ToNumeric (ints >= 2^53 may tie), so that
      // double is the exact key.
      numeric.clear();
      for (size_t r = 0; r < num_rows; ++r) {
        numeric.emplace_back(rows[r][c].ToNumeric(), static_cast<uint32_t>(r));
      }
      EncodeRuns(&numeric, std::less<double>(), &ids, &heads);
    } else if (!has_null && column.type == ValueType::kString) {
      strings.clear();
      for (size_t r = 0; r < num_rows; ++r) {
        strings.emplace_back(rows[r][c].AsString(), static_cast<uint32_t>(r));
      }
      EncodeRuns(&strings, std::less<std::string_view>(), &ids, &heads);
    } else {
      // Nulls or an untyped column's mixed cells: Value's own order.
      cells.clear();
      for (size_t r = 0; r < num_rows; ++r) {
        cells.emplace_back(&rows[r][c], static_cast<uint32_t>(r));
      }
      EncodeRuns(&cells, [](const Value* a, const Value* b) { return *a < *b; }, &ids,
                 &heads);
    }
    column.dictionary.reserve(heads.size());
    for (uint32_t row : heads) column.dictionary.push_back(std::move(rows[row][c]));
    uint32_t max_id = heads.empty() ? 0 : static_cast<uint32_t>(heads.size() - 1);
    if (config.bit_packed_forward_index) {
      column.packed = BitPackedVector(ids, max_id);
    } else {
      column.plain = std::move(ids);
    }
    column.BuildDictNumeric();
  }

  segment->BuildZoneMaps();
  segment->BuildIndexes(config);
  return segment;
}

void Segment::BuildIndexes(const SegmentIndexConfig& config) {
  constexpr size_t kBatch = 1024;
  std::vector<uint32_t> batch(std::min(kBatch, std::max<size_t>(num_rows_, 1)));

  // Inverted indexes (batch-decoded forward index instead of per-row Get).
  for (const std::string& name : config.inverted_columns) {
    int idx = schema_.FieldIndex(name);
    if (idx < 0) continue;
    Column& column = columns_[static_cast<size_t>(idx)];
    column.has_inverted = true;
    column.inverted.assign(column.dictionary.size(), {});
    for (size_t base = 0; base < num_rows_; base += kBatch) {
      size_t count = std::min(kBatch, num_rows_ - base);
      column.UnpackRange(base, count, batch.data());
      for (size_t i = 0; i < count; ++i) {
        column.inverted[batch[i]].push_back(static_cast<uint32_t>(base + i));
      }
    }
  }

  // Star-tree cube.
  star_dims_.clear();
  star_metrics_.clear();
  for (const std::string& dim : config.star_tree_dimensions) {
    int idx = schema_.FieldIndex(dim);
    if (idx >= 0) star_dims_.push_back(idx);
  }
  for (const std::string& metric : config.star_tree_metrics) {
    int idx = schema_.FieldIndex(metric);
    if (idx >= 0) star_metrics_.push_back(idx);
  }
  star_tree_.clear();
  if (star_dims_.empty()) return;
  const size_t num_dims = star_dims_.size();
  const size_t num_metrics = star_metrics_.size();
  const size_t n = num_rows_;
  // Dict ids dim-major (dim_ids[d * n + r]); metric values row-major.
  std::vector<uint32_t> dim_ids(num_dims * n);
  for (size_t d = 0; d < num_dims; ++d) {
    columns_[static_cast<size_t>(star_dims_[d])].UnpackRange(0, n, dim_ids.data() + d * n);
  }
  std::vector<double> values(num_metrics * n);
  for (size_t m = 0; m < num_metrics; ++m) {
    const Column& column = columns_[static_cast<size_t>(star_metrics_[m])];
    for (size_t base = 0; base < n; base += kBatch) {
      size_t count = std::min(kBatch, n - base);
      column.UnpackRange(base, count, batch.data());
      for (size_t i = 0; i < count; ++i) {
        values[(base + i) * num_metrics + m] = column.dict_numeric[batch[i]];
      }
    }
  }
  // One stable sort of the rows per level puts each cell's rows next to each
  // other in row order, so every cell folds its rows in the same order the
  // row-at-a-time map build did: sums stay bitwise identical.
  std::vector<uint32_t> order(n);
  star_tree_.resize(num_dims + 1);
  for (size_t k = 0; k <= num_dims; ++k) {
    auto prefix_less = [&](uint32_t a, uint32_t b) {
      for (size_t d = 0; d < k; ++d) {
        uint32_t x = dim_ids[d * n + a];
        uint32_t y = dim_ids[d * n + b];
        if (x != y) return x < y;
      }
      return false;
    };
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(), prefix_less);
    // The root (k == 0) is one cell even with no rows.
    size_t cells = n == 0 && k == 0 ? 1 : 0;
    for (size_t i = 0; i < n; ++i) {
      if (i == 0 || prefix_less(order[i - 1], order[i])) ++cells;
    }
    StarTreeLevel& level = star_tree_[k];
    level.ids.resize(cells * k);
    level.count.assign(cells, 0);
    level.sum.assign(cells * num_metrics, 0);
    level.min.assign(cells * num_metrics, 0);
    level.max.assign(cells * num_metrics, 0);
    size_t cell = 0;
    for (size_t i = 0; i < n; ++i) {
      const uint32_t row = order[i];
      if (i > 0 && prefix_less(order[i - 1], row)) ++cell;
      for (size_t d = 0; d < k; ++d) level.ids[cell * k + d] = dim_ids[d * n + row];
      const double* v = values.data() + static_cast<size_t>(row) * num_metrics;
      double* sum = level.sum.data() + cell * num_metrics;
      double* lo = level.min.data() + cell * num_metrics;
      double* hi = level.max.data() + cell * num_metrics;
      for (size_t m = 0; m < num_metrics; ++m) {
        if (level.count[cell] == 0) {
          lo[m] = v[m];
          hi[m] = v[m];
        } else {
          lo[m] = std::min(lo[m], v[m]);
          hi[m] = std::max(hi[m], v[m]);
        }
        sum[m] += v[m];
      }
      ++level.count[cell];
    }
  }
}

Value Segment::GetValue(size_t row_index, int column_index) const {
  const Column& column = columns_[static_cast<size_t>(column_index)];
  return column.dictionary[column.IdAt(row_index)];
}

Row Segment::GetRow(size_t row_index) const {
  Row row;
  row.reserve(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    row.push_back(GetValue(row_index, static_cast<int>(c)));
  }
  return row;
}

int64_t Segment::MemoryBytes() const {
  // Lazy decode mutates columns_ under lazy_->mu; hold it across the walk
  // so footprint accounting never races a first-touch materialization.
  std::unique_lock<std::mutex> lock;
  if (lazy_ != nullptr) lock = std::unique_lock<std::mutex>(lazy_->mu);
  int64_t bytes = 128;
  for (const Column& column : columns_) bytes += column.MemoryBytes();
  for (const ZoneMap& zone : zones_) {
    bytes += 16 + static_cast<int64_t>(zone.bloom.capacity() * sizeof(uint64_t)) +
             ValueMemoryBytes(zone.min) + ValueMemoryBytes(zone.max);
  }
  return bytes + StarTreeMemoryBytes();
}

int64_t Segment::StarTreeLevel::MemoryBytes() const {
  return static_cast<int64_t>(sizeof(StarTreeLevel) + ids.capacity() * sizeof(uint32_t) +
                              count.capacity() * sizeof(int64_t) +
                              (sum.capacity() + min.capacity() + max.capacity()) *
                                  sizeof(double));
}

int64_t Segment::StarTreeMemoryBytes() const {
  int64_t bytes = 0;
  for (const StarTreeLevel& level : star_tree_) bytes += level.MemoryBytes();
  return bytes;
}

std::vector<size_t> Segment::StarTreeCellCounts() const {
  std::vector<size_t> cells;
  cells.reserve(star_tree_.size());
  for (const StarTreeLevel& level : star_tree_) cells.push_back(level.count.size());
  return cells;
}

// --- Zone maps & bloom pruning ---------------------------------------------

namespace {

/// Dictionaries below this stay bloom-less: a binary search over a handful
/// of values beats maintaining and probing filter words.
constexpr size_t kBloomMinCardinality = 64;
/// Filter bits per distinct value (2 probes -> ~5% false positives).
constexpr uint64_t kBloomBitsPerValue = 8;

template <typename T>
uint64_t HashBytes(const T& x, uint64_t h) {
  return Fnv1a64(std::string_view(reinterpret_cast<const char*>(&x), sizeof(x)), h);
}

/// Fnv1a64(EncodeRow({v})) without building the row: the same bytes (field
/// count 1 as a host-order u32, the type tag, then the body) are fed
/// straight into the hash.
uint64_t BloomHash(const Value& v) {
  uint64_t h = HashBytes(uint32_t{1}, kFnv1a64Offset);
  h = HashBytes(static_cast<char>(v.type()), h);
  switch (v.type()) {
    case ValueType::kNull: return h;
    case ValueType::kInt: return HashBytes(static_cast<uint64_t>(v.AsInt()), h);
    case ValueType::kDouble: return HashBytes(v.AsDouble(), h);
    case ValueType::kString:
      h = HashBytes(static_cast<uint32_t>(v.AsString().size()), h);
      return Fnv1a64(v.AsString(), h);
    case ValueType::kBool: return HashBytes(static_cast<char>(v.AsBool() ? 1 : 0), h);
  }
  return h;
}

}  // namespace

bool Segment::ZoneMap::MayContain(uint64_t hash) const {
  if (bloom.empty()) return true;
  uint64_t h2 = (hash >> 32) | 1;
  for (uint64_t probe = 0; probe < 2; ++probe) {
    uint64_t bit = (hash + probe * h2) & bloom_mask;
    if ((bloom[bit >> 6] & (1ULL << (bit & 63))) == 0) return false;
  }
  return true;
}

void Segment::BuildZoneMaps(bool keep_blooms) {
  if (!keep_blooms) zones_.clear();
  zones_.resize(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    ZoneMap& zone = zones_[c];
    const Column& column = columns_[c];
    if (column.dictionary.empty()) continue;
    // The dictionary is sorted, so min/max need no extra storage.
    zone.min = column.dictionary.front();
    zone.max = column.dictionary.back();
    if (keep_blooms && !zone.bloom.empty()) continue;
    zone.bloom.clear();
    zone.bloom_mask = 0;
    if (column.dictionary.size() < kBloomMinCardinality) continue;
    uint64_t bits = 64;
    while (bits < column.dictionary.size() * kBloomBitsPerValue) bits <<= 1;
    zone.bloom_mask = bits - 1;
    zone.bloom.assign(bits / 64, 0);
    for (const Value& v : column.dictionary) {
      uint64_t hash = BloomHash(v);
      uint64_t h2 = (hash >> 32) | 1;
      for (uint64_t probe = 0; probe < 2; ++probe) {
        uint64_t bit = (hash + probe * h2) & zone.bloom_mask;
        zone.bloom[bit >> 6] |= 1ULL << (bit & 63);
      }
    }
  }
}

PreparedQuery::PreparedQuery(const OlapQuery& q, const RowSchema& schema)
    : query(q), num_fields(schema.NumFields()) {
  filters.reserve(q.filters.size());
  for (const FilterPredicate& pred : q.filters) {
    PreparedPredicate p;
    p.pred = &pred;
    p.column = schema.FieldIndex(pred.column);
    p.target = p.column < 0
                   ? pred.value
                   : CoerceTo(schema.fields()[static_cast<size_t>(p.column)].type, pred.value);
    if (pred.op == FilterPredicate::Op::kEq) p.bloom_hash = BloomHash(p.target);
    filters.push_back(std::move(p));
  }
  group_by.reserve(q.group_by.size());
  for (const std::string& g : q.group_by) group_by.push_back(schema.FieldIndex(g));
  aggregations.reserve(q.aggregations.size());
  for (const OlapAggregation& agg : q.aggregations) {
    aggregations.push_back(agg.column.empty() ? -1 : schema.FieldIndex(agg.column));
  }
}

bool Segment::CanMatch(const PreparedPredicate& pred) const {
  const int idx = pred.column;
  // Unknown column: execution reports the error.
  if (idx < 0 || static_cast<size_t>(idx) >= columns_.size()) return true;
  if (zones_.size() != columns_.size()) return true;
  const Column& column = columns_[static_cast<size_t>(idx)];
  const ZoneMap& zone = zones_[static_cast<size_t>(idx)];
  if (column.dictionary.empty()) return false;  // no rows, nothing matches
  // The target was coerced exactly like execution coerces it, so pruning
  // can never disagree with execution.
  const Value& target = pred.target;
  const Value& lo = zone.min;
  const Value& hi = zone.max;
  switch (pred.pred->op) {
    case FilterPredicate::Op::kEq: {
      if (target < lo || hi < target) return false;
      if (!zone.MayContain(pred.bloom_hash)) return false;
      // The dictionary is resident, so back the bloom's "maybe" with the
      // exact membership answer.
      return std::binary_search(column.dictionary.begin(),
                                column.dictionary.end(), target);
    }
    case FilterPredicate::Op::kNe:
      // Prunable only when every row holds exactly the target value.
      return !(column.dictionary.size() == 1 && !(lo < target) && !(target < lo));
    case FilterPredicate::Op::kLt:
      return lo < target;
    case FilterPredicate::Op::kLe:
      return !(target < lo);
    case FilterPredicate::Op::kGt:
      return target < hi;
    case FilterPredicate::Op::kGe:
      return !(hi < target);
  }
  return true;
}

// --- Detached prune info (warm/cold tiers) ----------------------------------

bool SegmentPruneInfo::CanMatch(const PreparedPredicate& pred) const {
  // Columns are in schema order, so the prepared index addresses them.
  if (pred.column < 0 || static_cast<size_t>(pred.column) >= columns_.size()) {
    return true;  // unknown column: execution reports it
  }
  const ColumnPrune* col = &columns_[static_cast<size_t>(pred.column)];
  if (!col->any_rows) return false;
  const Value& target = pred.target;
  const Value& lo = col->min;
  const Value& hi = col->max;
  switch (pred.pred->op) {
    case FilterPredicate::Op::kEq: {
      if (target < lo || hi < target) return false;
      // Bloom-only membership — no resident dictionary to back the "maybe"
      // with an exact answer, so a false positive scans a segment the hot
      // check would have pruned; never the reverse.
      if (!col->bloom.empty()) {
        uint64_t hash = pred.bloom_hash;
        uint64_t h2 = (hash >> 32) | 1;
        for (uint64_t probe = 0; probe < 2; ++probe) {
          uint64_t bit = (hash + probe * h2) & col->bloom_mask;
          if ((col->bloom[bit >> 6] & (1ULL << (bit & 63))) == 0) return false;
        }
      }
      return true;
    }
    case FilterPredicate::Op::kNe:
      // min == max means every row holds exactly the one distinct value.
      return !(!(lo < hi) && !(hi < lo) && !(lo < target) && !(target < lo));
    case FilterPredicate::Op::kLt:
      return lo < target;
    case FilterPredicate::Op::kLe:
      return !(target < lo);
    case FilterPredicate::Op::kGt:
      return target < hi;
    case FilterPredicate::Op::kGe:
      return !(hi < target);
  }
  return true;
}

int64_t SegmentPruneInfo::MemoryBytes() const {
  int64_t bytes = 32;
  for (const ColumnPrune& c : columns_) {
    bytes += 64 + static_cast<int64_t>(c.name.size()) +
             static_cast<int64_t>(c.bloom.capacity() * sizeof(uint64_t)) +
             ValueMemoryBytes(c.min) + ValueMemoryBytes(c.max);
  }
  return bytes;
}

SegmentPruneInfo Segment::BuildPruneInfo() const {
  std::vector<SegmentPruneInfo::ColumnPrune> cols;
  cols.reserve(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    SegmentPruneInfo::ColumnPrune p;
    p.name = schema_.fields()[c].name;
    p.type = columns_[c].type;
    p.any_rows = !columns_[c].dictionary.empty();
    if (p.any_rows) {
      p.min = columns_[c].dictionary.front();
      p.max = columns_[c].dictionary.back();
    }
    if (c < zones_.size()) {
      p.bloom = zones_[c].bloom;
      p.bloom_mask = zones_[c].bloom_mask;
    }
    cols.push_back(std::move(p));
  }
  return SegmentPruneInfo(std::move(cols));
}

// --- Filtering -------------------------------------------------------------

Result<std::pair<uint32_t, uint32_t>> Segment::PredicateIdRange(
    const Column& column, FilterPredicate::Op op, const Value& target) const {
  auto lo_it = std::lower_bound(column.dictionary.begin(), column.dictionary.end(),
                                target);
  auto hi_it = std::upper_bound(column.dictionary.begin(), column.dictionary.end(),
                                target);
  uint32_t lo = static_cast<uint32_t>(lo_it - column.dictionary.begin());
  uint32_t hi = static_cast<uint32_t>(hi_it - column.dictionary.begin());
  uint32_t n = static_cast<uint32_t>(column.dictionary.size());
  switch (op) {
    case FilterPredicate::Op::kEq: return std::make_pair(lo, hi);
    case FilterPredicate::Op::kLt: return std::make_pair(0u, lo);
    case FilterPredicate::Op::kLe: return std::make_pair(0u, hi);
    case FilterPredicate::Op::kGt: return std::make_pair(hi, n);
    case FilterPredicate::Op::kGe: return std::make_pair(lo, n);
    case FilterPredicate::Op::kNe:
      return Status::InvalidArgument("kNe has no contiguous id range");
  }
  return Status::Internal("bad predicate op");
}

Result<std::vector<uint32_t>> Segment::FilterRows(
    const std::vector<FilterPredicate>& preds, bool* all, int64_t* rows_scanned) const {
  *all = false;
  std::vector<const FilterPredicate*> scan_preds;
  std::vector<uint32_t> candidates;
  bool have_candidates = false;

  auto intersect = [&](std::vector<uint32_t> rows) {
    if (!have_candidates) {
      candidates = std::move(rows);
      have_candidates = true;
      return;
    }
    std::vector<uint32_t> merged;
    std::set_intersection(candidates.begin(), candidates.end(), rows.begin(),
                          rows.end(), std::back_inserter(merged));
    candidates = std::move(merged);
  };

  for (const FilterPredicate& pred : preds) {
    int idx = ColumnIndex(pred.column);
    if (idx < 0) return Status::InvalidArgument("unknown column: " + pred.column);
    const Column& column = columns_[static_cast<size_t>(idx)];
    if (pred.op == FilterPredicate::Op::kNe) {
      scan_preds.push_back(&pred);
      continue;
    }
    Result<std::pair<uint32_t, uint32_t>> range =
        PredicateIdRange(column, pred.op, CoerceTo(column.type, pred.value));
    if (!range.ok()) return range.status();
    auto [lo, hi] = range.value();
    if (lo >= hi) return std::vector<uint32_t>{};  // no dictionary match
    if (idx == sorted_column_) {
      // Sorted column: rows with ids in [lo,hi) are contiguous; binary
      // search the row range.
      size_t row_lo = 0, row_hi = num_rows_;
      {
        size_t a = 0, b = num_rows_;
        while (a < b) {
          size_t mid = (a + b) / 2;
          if (column.IdAt(mid) < lo) a = mid + 1; else b = mid;
        }
        row_lo = a;
        a = row_lo;
        b = num_rows_;
        while (a < b) {
          size_t mid = (a + b) / 2;
          if (column.IdAt(mid) < hi) a = mid + 1; else b = mid;
        }
        row_hi = a;
      }
      std::vector<uint32_t> rows;
      rows.reserve(row_hi - row_lo);
      for (size_t r = row_lo; r < row_hi; ++r) rows.push_back(static_cast<uint32_t>(r));
      intersect(std::move(rows));
    } else if (column.has_inverted) {
      // Inverted index: union of the posting lists in the id range. This is
      // also how range predicates are served ("range index").
      std::vector<uint32_t> rows;
      for (uint32_t id = lo; id < hi; ++id) {
        rows.insert(rows.end(), column.inverted[id].begin(), column.inverted[id].end());
      }
      std::sort(rows.begin(), rows.end());
      intersect(std::move(rows));
    } else {
      scan_preds.push_back(&pred);
    }
  }

  auto matches_scan = [&](uint32_t r) {
    for (const FilterPredicate* pred : scan_preds) {
      int idx = ColumnIndex(pred->column);
      const Column& column = columns_[static_cast<size_t>(idx)];
      uint32_t id = column.IdAt(r);
      if (pred->op == FilterPredicate::Op::kNe) {
        Value target = CoerceTo(column.type, pred->value);
        const Value& v = column.dictionary[id];
        if (!(v < target) && !(target < v)) return false;  // equal -> excluded
      } else {
        Result<std::pair<uint32_t, uint32_t>> range =
            PredicateIdRange(column, pred->op, CoerceTo(column.type, pred->value));
        auto [lo, hi] = range.value();
        if (id < lo || id >= hi) return false;
      }
    }
    return true;
  };

  if (!have_candidates) {
    if (scan_preds.empty()) {
      *all = true;
      return std::vector<uint32_t>{};
    }
    std::vector<uint32_t> rows;
    for (size_t r = 0; r < num_rows_; ++r) {
      ++*rows_scanned;
      if (matches_scan(static_cast<uint32_t>(r))) rows.push_back(static_cast<uint32_t>(r));
    }
    return rows;
  }
  if (scan_preds.empty()) return candidates;
  std::vector<uint32_t> rows;
  for (uint32_t r : candidates) {
    ++*rows_scanned;
    if (matches_scan(r)) rows.push_back(r);
  }
  return rows;
}

// --- Star-tree query path --------------------------------------------------

bool Segment::TryStarTree(const PreparedQuery& prepared,
                          const std::vector<bool>* validity, OlapResult* result) const {
  const OlapQuery& query = prepared.query;
  if (star_dims_.empty() || validity != nullptr) return false;
  if (query.aggregations.empty()) return false;
  // Which star dims does the query touch?
  auto dim_position = [&](int idx) {
    for (size_t d = 0; d < star_dims_.size(); ++d) {
      if (star_dims_[d] == idx) return static_cast<int>(d);
    }
    return -1;
  };
  size_t max_prefix = 0;
  for (const PreparedPredicate& pred : prepared.filters) {
    if (pred.pred->op != FilterPredicate::Op::kEq) return false;
    int pos = dim_position(pred.column);
    if (pos < 0) return false;
    max_prefix = std::max(max_prefix, static_cast<size_t>(pos) + 1);
  }
  std::vector<int> group_positions;
  group_positions.reserve(prepared.group_by.size());
  for (int idx : prepared.group_by) {
    int pos = dim_position(idx);
    if (pos < 0) return false;
    group_positions.push_back(pos);
    max_prefix = std::max(max_prefix, static_cast<size_t>(pos) + 1);
  }
  // Aggregations must be answerable from the cube metrics.
  const size_t num_aggs = query.aggregations.size();
  std::vector<int> metric_slot(num_aggs, -1);
  for (size_t a = 0; a < num_aggs; ++a) {
    if (query.aggregations[a].kind == OlapAggregation::Kind::kCount) continue;
    for (size_t m = 0; m < star_metrics_.size(); ++m) {
      if (star_metrics_[m] == prepared.aggregations[a]) {
        metric_slot[a] = static_cast<int>(m);
        break;
      }
    }
    if (metric_slot[a] < 0) return false;
  }

  // Resolve Eq filters to one dict id per dim; a value missing from the
  // dictionary, or two different values on one dim, means zero rows.
  result->rows.clear();
  constexpr int64_t kAny = -1;
  std::vector<int64_t> pinned(max_prefix, kAny);
  for (const PreparedPredicate& pred : prepared.filters) {
    const size_t pos = static_cast<size_t>(dim_position(pred.column));
    const Column& column = columns_[static_cast<size_t>(star_dims_[pos])];
    auto it = std::lower_bound(column.dictionary.begin(), column.dictionary.end(),
                               pred.target);
    if (it == column.dictionary.end() || pred.target < *it) return true;
    const int64_t id = it - column.dictionary.begin();
    if (pinned[pos] != kAny && pinned[pos] != id) return true;
    pinned[pos] = id;
  }

  // Cells are sorted by id tuple, so the cells whose leading dims are all
  // pinned form one contiguous run: binary-search it, scan only it.
  const StarTreeLevel& level = star_tree_[max_prefix];
  const size_t width = max_prefix;
  const size_t num_cells = level.count.size();
  size_t pinned_prefix = 0;
  while (pinned_prefix < width && pinned[pinned_prefix] != kAny) ++pinned_prefix;
  auto compare_prefix = [&](size_t cell) {
    const uint32_t* ids = level.ids.data() + cell * width;
    for (size_t d = 0; d < pinned_prefix; ++d) {
      const auto want = static_cast<uint32_t>(pinned[d]);
      if (ids[d] != want) return ids[d] < want ? -1 : 1;
    }
    return 0;
  };
  const auto run = std::ranges::equal_range(std::views::iota(size_t{0}, num_cells), 0,
                                            std::less<>(), compare_prefix);
  std::vector<uint32_t> cells;
  for (size_t cell : run) {
    const uint32_t* ids = level.ids.data() + cell * width;
    bool match = true;
    for (size_t d = pinned_prefix; d < width && match; ++d) {
      match = pinned[d] == kAny || ids[d] == static_cast<uint32_t>(pinned[d]);
    }
    if (match) cells.push_back(static_cast<uint32_t>(cell));
  }

  // Groups are emitted in group-id tuple order, each folding its cells in
  // cell order. The scan order already is group order whenever the group
  // dims follow the pinned prefix (the dashboard shape), so sort only if not.
  auto group_less = [&](uint32_t a, uint32_t b) {
    for (int pos : group_positions) {
      uint32_t x = level.ids[a * width + static_cast<size_t>(pos)];
      uint32_t y = level.ids[b * width + static_cast<size_t>(pos)];
      if (x != y) return x < y;
    }
    return false;
  };
  if (!std::is_sorted(cells.begin(), cells.end(), group_less)) {
    std::stable_sort(cells.begin(), cells.end(), group_less);
  }
  std::vector<AggAccumulator> accs(num_aggs);
  const size_t num_metrics = star_metrics_.size();
  result->rows.reserve(cells.size());  // at most one group per cell
  for (size_t i = 0; i < cells.size();) {
    const uint32_t first = cells[i];
    std::fill(accs.begin(), accs.end(), AggAccumulator{});
    for (; i < cells.size() && !group_less(first, cells[i]); ++i) {
      const size_t cell = cells[i];
      for (size_t a = 0; a < num_aggs; ++a) {
        AggAccumulator partial;
        partial.count = level.count[cell];
        if (metric_slot[a] >= 0) {
          const size_t slot = cell * num_metrics + static_cast<size_t>(metric_slot[a]);
          partial.sum = level.sum[slot];
          partial.min = level.min[slot];
          partial.max = level.max[slot];
        }
        accs[a].Merge(partial);
      }
    }
    Row row;
    row.reserve(group_positions.size() + num_aggs * kAccumulatorFields);
    for (int pos : group_positions) {
      const Column& column =
          columns_[static_cast<size_t>(star_dims_[static_cast<size_t>(pos)])];
      row.push_back(column.dictionary[level.ids[first * width + static_cast<size_t>(pos)]]);
    }
    for (const AggAccumulator& acc : accs) AppendAccumulator(&row, acc);
    result->rows.push_back(std::move(row));
  }
  return true;
}

// --- Execute ----------------------------------------------------------------

Result<OlapResult> Segment::Execute(const OlapQuery& query,
                                    const std::vector<bool>* validity,
                                    OlapQueryStats* stats) const {
  return Execute(PreparedQuery(query, schema_), validity, stats);
}

Result<OlapResult> Segment::Execute(const PreparedQuery& prepared,
                                    const std::vector<bool>* validity,
                                    OlapQueryStats* stats) const {
  const OlapQuery& query = prepared.query;
  if (prepared.num_fields != columns_.size()) {
    return Status::InvalidArgument("query prepared against another schema");
  }
  if (lazy_ != nullptr) {
    UBERRT_RETURN_IF_ERROR(EnsureForQuery(query, stats));
  }
  ++stats->segments_scanned;
  if (query.force_scalar) return ExecuteScalar(query, validity, stats);
  if (!query.aggregations.empty()) {
    OlapResult result;
    if (TryStarTree(prepared, validity, &result)) {
      ++stats->star_tree_hits;
      return result;
    }
  }
  return ExecuteVectorized(prepared, validity, stats);
}

Result<OlapResult> Segment::ExecuteScalar(const OlapQuery& query,
                                          const std::vector<bool>* validity,
                                          OlapQueryStats* stats) const {
  OlapResult result;
  if (!query.aggregations.empty()) {
    int64_t scanned_before = stats->rows_scanned;
    bool all = false;
    Result<std::vector<uint32_t>> rows =
        FilterRows(query.filters, &all, &stats->rows_scanned);
    if (!rows.ok()) return rows.status();
    // One accounting per row per query: when the filter phase already
    // examined rows (scan predicates), the aggregate phase adds nothing.
    const bool filter_scanned = stats->rows_scanned != scanned_before;

    std::vector<int> group_indices;
    for (const std::string& g : query.group_by) {
      int idx = ColumnIndex(g);
      if (idx < 0) return Status::InvalidArgument("unknown group column: " + g);
      group_indices.push_back(idx);
    }
    std::vector<int> agg_indices;
    for (const OlapAggregation& agg : query.aggregations) {
      int idx = agg.column.empty() ? -1 : ColumnIndex(agg.column);
      if (!agg.column.empty() && idx < 0) {
        return Status::InvalidArgument("unknown aggregate column: " + agg.column);
      }
      agg_indices.push_back(idx);
    }

    struct GroupEntry {
      Row key_values;
      std::vector<AggAccumulator> accs;
    };
    std::map<std::string, GroupEntry> groups;
    auto process_row = [&](uint32_t r) {
      if (validity != nullptr && !(*validity)[r]) return;
      if (!filter_scanned) ++stats->rows_scanned;
      std::string group_key;
      for (int idx : group_indices) {
        // Big-endian: memcmp order of the key equals id order, so the
        // oracle's map emits groups in the vectorized engine's order.
        bytes::PutBE32(&group_key, columns_[static_cast<size_t>(idx)].IdAt(r));
      }
      GroupEntry& entry = groups[group_key];
      if (entry.accs.empty()) {
        entry.accs.resize(query.aggregations.size());
        for (int idx : group_indices) {
          entry.key_values.push_back(GetValue(r, idx));
        }
      }
      for (size_t a = 0; a < query.aggregations.size(); ++a) {
        double v = agg_indices[a] >= 0 ? GetValue(r, agg_indices[a]).ToNumeric() : 0.0;
        entry.accs[a].Add(v);
      }
    };
    if (all) {
      for (size_t r = 0; r < num_rows_; ++r) process_row(static_cast<uint32_t>(r));
    } else {
      for (uint32_t r : rows.value()) process_row(r);
    }
    for (auto& [key, entry] : groups) {
      Row row = std::move(entry.key_values);
      for (const AggAccumulator& acc : entry.accs) AppendAccumulator(&row, acc);
      result.rows.push_back(std::move(row));
    }
    return result;
  }

  // Raw selection.
  if (query.select_columns.empty()) {
    return Status::InvalidArgument("query needs select columns or aggregations");
  }
  std::vector<int> select_indices;
  for (const std::string& s : query.select_columns) {
    int idx = ColumnIndex(s);
    if (idx < 0) return Status::InvalidArgument("unknown column: " + s);
    select_indices.push_back(idx);
  }
  int64_t scanned_before = stats->rows_scanned;
  bool all = false;
  Result<std::vector<uint32_t>> rows =
      FilterRows(query.filters, &all, &stats->rows_scanned);
  if (!rows.ok()) return rows.status();
  const bool filter_scanned = stats->rows_scanned != scanned_before;
  auto emit = [&](uint32_t r) {
    if (validity != nullptr && !(*validity)[r]) return true;
    if (!filter_scanned) ++stats->rows_scanned;
    Row row;
    row.reserve(select_indices.size());
    for (int idx : select_indices) row.push_back(GetValue(r, idx));
    result.rows.push_back(std::move(row));
    // Per-segment short-circuit only valid without ORDER BY.
    return !(query.limit >= 0 && query.order_by.empty() &&
             static_cast<int64_t>(result.rows.size()) >= query.limit);
  };
  if (all) {
    for (size_t r = 0; r < num_rows_; ++r) {
      if (!emit(static_cast<uint32_t>(r))) break;
    }
  } else {
    for (uint32_t r : rows.value()) {
      if (!emit(r)) break;
    }
  }
  return result;
}

// --- Serialization -----------------------------------------------------------

std::string Segment::Serialize() const {
  // A lazy segment's pinned blob IS its serialized form (bloom sections
  // included), whatever subset of columns happens to be materialized.
  if (lazy_ != nullptr) return lazy_->blob->substr(lazy_->base_offset);
  std::string out;
  bytes::PutString(&out, name_);
  bytes::PutLE32(&out, static_cast<uint32_t>(schema_.NumFields()));
  for (const FieldSpec& f : schema_.fields()) {
    bytes::PutString(&out, f.name);
    out.push_back(static_cast<char>(f.type));
  }
  bytes::PutLE64(&out, num_rows_);
  // Index config (indexes themselves are rebuilt on load).
  out.push_back(config_.bit_packed_forward_index ? 1 : 0);
  auto put_names = [&out](const std::vector<std::string>& names) {
    bytes::PutLE32(&out, static_cast<uint32_t>(names.size()));
    for (const std::string& c : names) bytes::PutString(&out, c);
  };
  put_names(config_.inverted_columns);
  bytes::PutString(&out, config_.sorted_column);
  put_names(config_.star_tree_dimensions);
  put_names(config_.star_tree_metrics);
  // Columns: dictionary (as one encoded row) + forward index.
  for (const Column& column : columns_) {
    Row dict_row(column.dictionary.begin(), column.dictionary.end());
    bytes::PutString(&out, EncodeRow(dict_row));
    if (!config_.bit_packed_forward_index) {
      for (size_t r = 0; r < num_rows_; ++r) bytes::PutLE32(&out, column.plain[r]);
    } else {
      bytes::PutLE32(&out, static_cast<uint32_t>(column.packed.bits_per_value()));
      bytes::PutLE64(&out, column.packed.words().size());
      for (uint64_t w : column.packed.words()) bytes::PutLE64(&out, w);
    }
  }
  // Zone-map bloom filters, computed once at seal; min/max re-derive from
  // the sorted dictionaries on load.
  for (const ZoneMap& zone : zones_) {
    bytes::PutLE64(&out, zone.bloom_mask);
    bytes::PutLE64(&out, zone.bloom.size());
    for (uint64_t w : zone.bloom) bytes::PutLE64(&out, w);
  }
  return out;
}

namespace {

/// Everything that precedes the per-column payload, shared by the eager and
/// lazy decoders so the two can never drift on the header layout.
struct SegmentHeaderInfo {
  std::string name;
  std::vector<FieldSpec> fields;
  uint64_t num_rows = 0;
  SegmentIndexConfig config;
};

Status ParseSegmentHeader(bytes::ByteReader* in, SegmentHeaderInfo* out) {
  auto corrupt = [] { return Status::Corruption("segment blob truncated"); };
  auto read_names = [in](std::vector<std::string>* names) {
    uint32_t n;
    if (!in->U32(&n)) return false;
    for (uint32_t i = 0; i < n; ++i) {
      std::string c;
      if (!in->String(&c)) return false;
      names->push_back(std::move(c));
    }
    return true;
  };
  if (!in->String(&out->name)) return corrupt();
  uint32_t num_fields;
  if (!in->U32(&num_fields)) return corrupt();
  for (uint32_t i = 0; i < num_fields; ++i) {
    FieldSpec f;
    uint8_t type;
    if (!in->String(&f.name) || !in->U8(&type)) return corrupt();
    f.type = static_cast<ValueType>(type);
    out->fields.push_back(std::move(f));
  }
  uint8_t bit_packed;
  if (!in->U64(&out->num_rows) || !in->U8(&bit_packed)) return corrupt();
  out->config.bit_packed_forward_index = bit_packed != 0;
  if (!read_names(&out->config.inverted_columns) ||
      !in->String(&out->config.sorted_column) ||
      !read_names(&out->config.star_tree_dimensions) ||
      !read_names(&out->config.star_tree_metrics)) {
    return corrupt();
  }
  return Status::Ok();
}

}  // namespace

Status Segment::Column::Decode(bytes::ByteReader* in, uint64_t num_rows,
                               bool bit_packed) {
  auto corrupt = [] { return Status::Corruption("segment blob truncated"); };
  auto out_of_range = [] {
    return Status::Corruption("segment blob: dict id out of range");
  };
  std::string_view dict_blob;
  if (!in->String(&dict_blob)) return corrupt();
  Result<Row> dict = DecodeRow(dict_blob);
  if (!dict.ok()) return dict.status();
  dictionary = std::move(dict.value());
  const uint32_t dict_size = static_cast<uint32_t>(dictionary.size());
  if (!bit_packed) {
    if (num_rows > in->remaining() / 4) return corrupt();
    plain.resize(num_rows);
    for (uint64_t r = 0; r < num_rows; ++r) {
      if (!in->U32(&plain[r])) return corrupt();
      if (plain[r] >= dict_size) return out_of_range();
    }
  } else {
    uint32_t bits;
    uint64_t num_words;
    if (!in->U32(&bits) || !in->U64(&num_words)) return corrupt();
    if (num_words > in->remaining() / 8) return corrupt();
    std::vector<uint64_t> words(num_words);
    for (uint64_t w = 0; w < num_words; ++w) {
      if (!in->U64(&words[w])) return corrupt();
    }
    // Adopt the serialized words directly (no unpack/repack round trip),
    // then batch-decode once to validate every id against the dictionary.
    Result<BitPackedVector> words_packed =
        BitPackedVector::FromWords(static_cast<int>(bits), num_rows, std::move(words));
    if (!words_packed.ok()) return words_packed.status();
    packed = std::move(words_packed.value());
    constexpr size_t kBatch = 1024;
    std::vector<uint32_t> batch(std::min<uint64_t>(kBatch, num_rows));
    for (uint64_t base = 0; base < num_rows; base += kBatch) {
      size_t count = static_cast<size_t>(std::min<uint64_t>(kBatch, num_rows - base));
      packed.Unpack(base, count, batch.data());
      for (size_t i = 0; i < count; ++i) {
        if (batch[i] >= dict_size) return out_of_range();
      }
    }
  }
  BuildDictNumeric();
  return Status::Ok();
}

Result<std::shared_ptr<Segment>> Segment::Deserialize(const std::string& blob) {
  auto corrupt = [] { return Status::Corruption("segment blob truncated"); };
  bytes::ByteReader in(blob);
  SegmentHeaderInfo header;
  UBERRT_RETURN_IF_ERROR(ParseSegmentHeader(&in, &header));
  const uint32_t num_fields = static_cast<uint32_t>(header.fields.size());
  const SegmentIndexConfig& config = header.config;

  auto segment = std::shared_ptr<Segment>(new Segment());
  segment->name_ = std::move(header.name);
  segment->schema_ = RowSchema(header.fields);
  segment->num_rows_ = header.num_rows;
  segment->config_ = config;
  segment->sorted_column_ = config.sorted_column.empty()
                                ? -1
                                : segment->schema_.FieldIndex(config.sorted_column);
  segment->columns_.resize(num_fields);
  for (uint32_t c = 0; c < num_fields; ++c) {
    Column& column = segment->columns_[c];
    column.type = header.fields[c].type;
    UBERRT_RETURN_IF_ERROR(
        column.Decode(&in, header.num_rows, config.bit_packed_forward_index));
  }
  // Bloom words are adopted as serialized (hostile geometry rejected);
  // min/max come from the dictionaries.
  segment->zones_.resize(num_fields);
  for (uint32_t c = 0; c < num_fields; ++c) {
    ZoneMap& zone = segment->zones_[c];
    uint64_t mask, num_words;
    if (!in.U64(&mask) || !in.U64(&num_words)) return corrupt();
    if (num_words > in.remaining() / 8) return corrupt();
    const uint64_t bits = num_words * 64;
    if ((num_words == 0 && mask != 0) ||
        (num_words > 0 && (mask != bits - 1 || (bits & (bits - 1)) != 0))) {
      return Status::Corruption("segment blob: bad bloom geometry");
    }
    zone.bloom_mask = mask;
    zone.bloom.resize(num_words);
    for (uint64_t w = 0; w < num_words; ++w) {
      if (!in.U64(&zone.bloom[w])) return corrupt();
    }
  }
  segment->BuildZoneMaps(/*keep_blooms=*/true);
  segment->BuildIndexes(config);
  return segment;
}

Result<std::shared_ptr<Segment>> Segment::DeserializeLazy(
    std::shared_ptr<const std::string> blob, size_t offset) {
  auto corrupt = [] { return Status::Corruption("segment blob truncated"); };
  bytes::ByteReader in(*blob, offset);
  SegmentHeaderInfo header;
  UBERRT_RETURN_IF_ERROR(ParseSegmentHeader(&in, &header));
  const size_t num_fields = header.fields.size();

  auto segment = std::shared_ptr<Segment>(new Segment());
  segment->name_ = std::move(header.name);
  segment->schema_ = RowSchema(header.fields);
  segment->num_rows_ = header.num_rows;
  segment->config_ = header.config;
  segment->sorted_column_ =
      header.config.sorted_column.empty()
          ? -1
          : segment->schema_.FieldIndex(header.config.sorted_column);
  segment->columns_.resize(num_fields);

  auto lazy = std::make_unique<LazySource>();
  lazy->blob = blob;
  lazy->base_offset = offset;
  lazy->column_pos.resize(num_fields);
  lazy->decoded.assign(num_fields, false);
  // One structural pass: record where each column's payload starts (so a
  // truncated blob fails here, not mid-query) without decoding anything.
  for (size_t c = 0; c < num_fields; ++c) {
    segment->columns_[c].type = header.fields[c].type;
    lazy->column_pos[c] = in.pos();
    std::string_view dict_blob;
    if (!in.String(&dict_blob)) return corrupt();
    if (!header.config.bit_packed_forward_index) {
      if (header.num_rows > in.remaining() / 4) return corrupt();
      in.Skip(static_cast<size_t>(header.num_rows) * 4);
    } else {
      uint32_t bits;
      uint64_t num_words;
      if (!in.U32(&bits) || !in.U64(&num_words)) return corrupt();
      if (num_words > in.remaining() / 8) return corrupt();
      in.Skip(static_cast<size_t>(num_words) * 8);
    }
  }
  // The trailing bloom sections are deliberately not parsed: a lazy segment
  // carries no zone maps (CanMatch degrades to conservative-true); the
  // detached SegmentPruneInfo on its handle does the real plan-time pruning.
  segment->lazy_ = std::move(lazy);
  return segment;
}

Status Segment::EnsureColumnIndexes(const std::vector<int>& indexes,
                                    OlapQueryStats* stats) const {
  if (lazy_ == nullptr) return Status::Ok();
  std::lock_guard<std::mutex> lock(lazy_->mu);
  for (int idx : indexes) {
    if (idx < 0 || static_cast<size_t>(idx) >= columns_.size()) continue;
    const size_t c = static_cast<size_t>(idx);
    if (lazy_->decoded[c]) continue;
    bytes::ByteReader in(*lazy_->blob, lazy_->column_pos[c]);
    UBERRT_RETURN_IF_ERROR(
        columns_[c].Decode(&in, num_rows_, config_.bit_packed_forward_index));
    lazy_->decoded[c] = true;
    if (stats != nullptr) ++stats->columns_materialized;
  }
  return Status::Ok();
}

Status Segment::EnsureForQuery(const OlapQuery& query,
                               OlapQueryStats* stats) const {
  if (lazy_ == nullptr) return Status::Ok();
  std::vector<int> indexes;
  auto add = [&](const std::string& name) {
    if (name.empty()) return;
    int idx = ColumnIndex(name);
    if (idx >= 0) indexes.push_back(idx);  // unknown: Execute reports it
  };
  for (const FilterPredicate& pred : query.filters) add(pred.column);
  for (const std::string& g : query.group_by) add(g);
  for (const OlapAggregation& agg : query.aggregations) add(agg.column);
  for (const std::string& s : query.select_columns) add(s);
  return EnsureColumnIndexes(indexes, stats);
}

Status Segment::EnsureAllColumns() const {
  if (lazy_ == nullptr) return Status::Ok();
  std::vector<int> all(columns_.size());
  for (size_t c = 0; c < all.size(); ++c) all[c] = static_cast<int>(c);
  return EnsureColumnIndexes(all, nullptr);
}

int64_t Segment::DiskBytes() const {
  if (lazy_ != nullptr) {
    return static_cast<int64_t>(lazy_->blob->size() - lazy_->base_offset);
  }
  return static_cast<int64_t>(Serialize().size());
}

}  // namespace uberrt::olap
