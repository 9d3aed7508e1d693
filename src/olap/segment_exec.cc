/// Vectorized execution engine for immutable segments (Pinot-style,
/// paper Section 4.3): selection bitmaps + batched forward-index decode +
/// dict-id-native aggregation kernels. The row-at-a-time path lives in
/// segment.cc as Segment::ExecuteScalar and stays the parity oracle.
#include <algorithm>
#include <bit>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "olap/bitmap.h"
#include "olap/segment.h"

namespace uberrt::olap {

namespace {

/// Rows decoded per batch. Large enough to amortize per-batch setup, small
/// enough that the id/row buffers stay cache-resident.
constexpr size_t kBatchRows = 1024;

/// Scratch entries a segment's batches need: no batch spans more rows than
/// the segment has.
size_t BatchCapacity(size_t num_rows) { return std::min(kBatchRows, num_rows); }

/// Open-addressing hash map from packed group key to dense group index
/// (linear probing, power-of-two capacity, <75% load). Groups get dense
/// indexes in first-seen order; accumulators live in a flat side array.
class GroupIndex {
 public:
  GroupIndex() { Rehash(64); }

  /// Returns the dense index of `key`, inserting it if new.
  size_t FindOrInsert(uint64_t key, bool* inserted) {
    if ((keys_.size() + 1) * 4 > capacity_ * 3) Rehash(capacity_ * 2);
    size_t mask = capacity_ - 1;
    size_t slot = Hash(key) & mask;
    while (true) {
      uint32_t g = slots_[slot];
      if (g == kEmpty) {
        slots_[slot] = static_cast<uint32_t>(keys_.size());
        keys_.push_back(key);
        *inserted = true;
        return keys_.size() - 1;
      }
      if (keys_[g] == key) {
        *inserted = false;
        return g;
      }
      slot = (slot + 1) & mask;
    }
  }

  const std::vector<uint64_t>& keys() const { return keys_; }

 private:
  static constexpr uint32_t kEmpty = 0xFFFFFFFFu;

  static size_t Hash(uint64_t key) {
    uint64_t h = key * 0x9E3779B97F4A7C15ULL;
    return static_cast<size_t>(h ^ (h >> 32));
  }

  void Rehash(size_t new_capacity) {
    capacity_ = new_capacity;
    slots_.assign(new_capacity, kEmpty);
    size_t mask = new_capacity - 1;
    for (size_t g = 0; g < keys_.size(); ++g) {
      size_t slot = Hash(keys_[g]) & mask;
      while (slots_[slot] != kEmpty) slot = (slot + 1) & mask;
      slots_[slot] = static_cast<uint32_t>(g);
    }
  }

  size_t capacity_ = 0;
  std::vector<uint32_t> slots_;
  std::vector<uint64_t> keys_;
};

}  // namespace

Result<SelectionBitmap> Segment::BuildSelection(
    const std::vector<PreparedPredicate>& preds, const std::vector<bool>* validity,
    bool* filter_scanned, OlapQueryStats* stats) const {
  *filter_scanned = false;
  SelectionBitmap sel(num_rows_, true);

  struct ScanPred {
    const Column* column = nullptr;
    uint32_t lo = 0;
    uint32_t hi = 0;
    bool negate = false;
  };
  std::vector<ScanPred> scan_preds;

  // Row range [row_lo, row_hi) of the sorted column whose dict ids fall in
  // [lo, hi): ids are non-decreasing with row index, so binary search.
  auto sorted_row_range = [&](const Column& column, uint32_t lo, uint32_t hi) {
    size_t a = 0, b = num_rows_;
    while (a < b) {
      size_t mid = (a + b) / 2;
      if (column.IdAt(mid) < lo) a = mid + 1; else b = mid;
    }
    size_t row_lo = a;
    b = num_rows_;
    while (a < b) {
      size_t mid = (a + b) / 2;
      if (column.IdAt(mid) < hi) a = mid + 1; else b = mid;
    }
    return std::make_pair(row_lo, a);
  };

  auto posting_bitmap = [&](const Column& column, uint32_t lo, uint32_t hi) {
    SelectionBitmap bits(num_rows_, false);
    for (uint32_t id = lo; id < hi; ++id) {
      for (uint32_t r : column.inverted[id]) bits.Set(r);
    }
    return bits;
  };

  for (const PreparedPredicate& pred : preds) {
    const int idx = pred.column;
    if (idx < 0) return Status::InvalidArgument("unknown column: " + pred.pred->column);
    const Column& column = columns_[static_cast<size_t>(idx)];
    const FilterPredicate::Op op = pred.pred->op;
    if (op == FilterPredicate::Op::kNe) {
      // The excluded ids are the Eq range of the value; absent from the
      // dictionary means Ne matches every row.
      Result<std::pair<uint32_t, uint32_t>> range =
          PredicateIdRange(column, FilterPredicate::Op::kEq, pred.target);
      if (!range.ok()) return range.status();
      auto [lo, hi] = range.value();
      if (lo >= hi) continue;
      if (idx == sorted_column_) {
        auto [row_lo, row_hi] = sorted_row_range(column, lo, hi);
        stats->bitmap_words += static_cast<int64_t>(sel.ClearRange(row_lo, row_hi));
      } else if (column.has_inverted) {
        stats->bitmap_words +=
            static_cast<int64_t>(sel.AndNot(posting_bitmap(column, lo, hi)));
      } else {
        scan_preds.push_back({&column, lo, hi, true});
      }
      continue;
    }
    Result<std::pair<uint32_t, uint32_t>> range = PredicateIdRange(column, op, pred.target);
    if (!range.ok()) return range.status();
    auto [lo, hi] = range.value();
    if (lo >= hi) {
      // No dictionary match: nothing can qualify.
      sel.ClearAll();
      return sel;
    }
    if (idx == sorted_column_) {
      auto [row_lo, row_hi] = sorted_row_range(column, lo, hi);
      stats->bitmap_words += static_cast<int64_t>(sel.IntersectRange(row_lo, row_hi));
    } else if (column.has_inverted) {
      stats->bitmap_words +=
          static_cast<int64_t>(sel.And(posting_bitmap(column, lo, hi)));
    } else {
      scan_preds.push_back({&column, lo, hi, false});
    }
  }

  // Residual predicates: one batched scan pass over the surviving candidates.
  // rows_scanned counts every candidate the pass examines (same accounting as
  // the scalar oracle's FilterRows), and the caller's aggregate/select phase
  // then adds nothing.
  if (!scan_preds.empty() && num_rows_ > 0) {
    *filter_scanned = true;
    std::vector<uint32_t> rows(BatchCapacity(num_rows_));
    std::vector<uint32_t> dense(BatchCapacity(num_rows_));
    for (size_t base = 0; base < num_rows_; base += kBatchRows) {
      size_t hi = std::min(base + kBatchRows, num_rows_);
      size_t live = sel.Extract(base, hi, rows.data());
      if (live == 0) continue;
      stats->rows_scanned += static_cast<int64_t>(live);
      ++stats->exec_batches;
      for (const ScanPred& sp : scan_preds) {
        // Dense unpack when the batch is mostly selected; sparse per-row
        // gather otherwise.
        const bool use_dense = live * 4 >= hi - base;
        if (use_dense) sp.column->UnpackRange(base, hi - base, dense.data());
        size_t out = 0;
        for (size_t i = 0; i < live; ++i) {
          uint32_t r = rows[i];
          uint32_t id = use_dense ? dense[r - base] : sp.column->IdAt(r);
          bool in = id >= sp.lo && id < sp.hi;
          if (in == sp.negate) continue;
          rows[out++] = r;
        }
        live = out;
        if (live == 0) break;
      }
      stats->bitmap_words += static_cast<int64_t>(sel.ClearRange(base, hi));
      for (size_t i = 0; i < live; ++i) sel.Set(rows[i]);
    }
  }

  // Upsert validity folds in last; the scan accounting above deliberately
  // counts pre-validity candidates to match the scalar oracle.
  if (validity != nullptr) {
    for (size_t r = 0; r < num_rows_; ++r) {
      if (!(*validity)[r]) sel.Reset(r);
    }
    stats->bitmap_words += static_cast<int64_t>(sel.NumWords());
  }
  return sel;
}

Result<OlapResult> Segment::ExecuteVectorized(const PreparedQuery& prepared,
                                              const std::vector<bool>* validity,
                                              OlapQueryStats* stats) const {
  const OlapQuery& query = prepared.query;
  OlapResult result;

  // Scratch sized to the segment: a small segment never pays for a full
  // batch of buffers.
  const size_t batch = BatchCapacity(num_rows_);
  std::vector<uint32_t> rows(batch);
  std::vector<uint32_t> dense(batch);
  // Batch gather of one column's dict ids for the extracted rows: dense
  // unpack + index when the batch is mostly selected, per-row gets otherwise.
  auto gather = [&](const Column& column, size_t base, size_t span,
                    size_t n, uint32_t* out) {
    if (n * 4 >= span) {
      column.UnpackRange(base, span, dense.data());
      for (size_t i = 0; i < n; ++i) out[i] = dense[rows[i] - base];
    } else {
      for (size_t i = 0; i < n; ++i) out[i] = column.IdAt(rows[i]);
    }
  };

  if (!query.aggregations.empty()) {
    bool filter_scanned = false;
    Result<SelectionBitmap> sel_result =
        BuildSelection(prepared.filters, validity, &filter_scanned, stats);
    if (!sel_result.ok()) return sel_result.status();
    SelectionBitmap sel = std::move(sel_result.value());

    const std::vector<int>& group_indices = prepared.group_by;
    for (size_t g = 0; g < group_indices.size(); ++g) {
      if (group_indices[g] < 0) {
        return Status::InvalidArgument("unknown group column: " + query.group_by[g]);
      }
    }
    const std::vector<int>& agg_indices = prepared.aggregations;
    for (size_t a = 0; a < agg_indices.size(); ++a) {
      const std::string& column = query.aggregations[a].column;
      if (!column.empty() && agg_indices[a] < 0) {
        return Status::InvalidArgument("unknown aggregate column: " + column);
      }
    }
    const size_t num_aggs = query.aggregations.size();
    const size_t num_groups = group_indices.size();

    std::vector<std::vector<uint32_t>> agg_ids(num_aggs);
    for (size_t a = 0; a < num_aggs; ++a) {
      if (agg_indices[a] >= 0) agg_ids[a].resize(batch);
    }
    // dict id -> numeric, so the kernels never build a Value on the hot path.
    auto agg_value = [&](size_t a, size_t i) {
      int idx = agg_indices[a];
      if (idx < 0) return 0.0;
      return columns_[static_cast<size_t>(idx)].dict_numeric[agg_ids[a][i]];
    };
    auto gather_agg_ids = [&](size_t base, size_t span, size_t n) {
      for (size_t a = 0; a < num_aggs; ++a) {
        if (agg_indices[a] < 0) continue;
        gather(columns_[static_cast<size_t>(agg_indices[a])], base, span, n,
               agg_ids[a].data());
      }
    };

    if (num_groups == 0) {
      // Global aggregate: one accumulator per aggregation, no key building.
      std::vector<AggAccumulator> accs(num_aggs);
      size_t total = 0;
      for (size_t base = 0; base < num_rows_; base += kBatchRows) {
        size_t hi = std::min(base + kBatchRows, num_rows_);
        size_t n = sel.Extract(base, hi, rows.data());
        if (n == 0) continue;
        total += n;
        if (!filter_scanned) stats->rows_scanned += static_cast<int64_t>(n);
        ++stats->exec_batches;
        gather_agg_ids(base, hi - base, n);
        for (size_t a = 0; a < num_aggs; ++a) {
          AggAccumulator& acc = accs[a];
          if (agg_indices[a] < 0) {
            // COUNT: bump by the batch popcount, no column decode at all.
            if (acc.count == 0) {
              acc.min = 0.0;
              acc.max = 0.0;
            }
            acc.count += static_cast<int64_t>(n);
            continue;
          }
          const double* lut =
              columns_[static_cast<size_t>(agg_indices[a])].dict_numeric.data();
          const uint32_t* ids = agg_ids[a].data();
          for (size_t i = 0; i < n; ++i) acc.Add(lut[ids[i]]);
        }
      }
      if (total > 0) {
        Row row;
        for (const AggAccumulator& acc : accs) AppendAccumulator(&row, acc);
        result.rows.push_back(std::move(row));
      }
      return result;
    }

    // Group keys are packed dict-id composites: column 0 in the most
    // significant bits, so ascending numeric key order equals ascending
    // dict-id tuple order (what the scalar oracle's big-endian map keys
    // yield).
    std::vector<uint32_t> widths(num_groups);
    size_t total_bits = 0;
    for (size_t g = 0; g < num_groups; ++g) {
      size_t dict_size =
          columns_[static_cast<size_t>(group_indices[g])].dictionary.size();
      widths[g] = dict_size > 1
                      ? static_cast<uint32_t>(std::bit_width(dict_size - 1))
                      : 0u;
      total_bits += widths[g];
    }
    std::vector<std::vector<uint32_t>> group_ids(num_groups,
                                                 std::vector<uint32_t>(batch));

    if (total_bits <= 64) {
      // Fast path: single-word keys into an open-addressing map, flat
      // accumulator array with stride num_aggs.
      GroupIndex index;
      std::vector<AggAccumulator> accs;
      std::vector<uint64_t> keys(batch);
      for (size_t base = 0; base < num_rows_; base += kBatchRows) {
        size_t hi = std::min(base + kBatchRows, num_rows_);
        size_t n = sel.Extract(base, hi, rows.data());
        if (n == 0) continue;
        if (!filter_scanned) stats->rows_scanned += static_cast<int64_t>(n);
        ++stats->exec_batches;
        for (size_t g = 0; g < num_groups; ++g) {
          gather(columns_[static_cast<size_t>(group_indices[g])], base, hi - base,
                 n, group_ids[g].data());
        }
        std::fill(keys.begin(), keys.begin() + static_cast<ptrdiff_t>(n), 0);
        for (size_t g = 0; g < num_groups; ++g) {
          uint32_t w = widths[g];
          const uint32_t* ids = group_ids[g].data();
          for (size_t i = 0; i < n; ++i) keys[i] = (keys[i] << w) | ids[i];
        }
        gather_agg_ids(base, hi - base, n);
        for (size_t i = 0; i < n; ++i) {
          bool inserted = false;
          size_t gi = index.FindOrInsert(keys[i], &inserted);
          if (inserted) accs.resize(accs.size() + num_aggs);
          AggAccumulator* acc = &accs[gi * num_aggs];
          for (size_t a = 0; a < num_aggs; ++a) acc[a].Add(agg_value(a, i));
        }
      }
      // Late-materialize group values once per group, emitted in ascending
      // key order (== the scalar oracle's emission order).
      std::vector<uint32_t> order(index.keys().size());
      std::iota(order.begin(), order.end(), 0u);
      std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
        return index.keys()[a] < index.keys()[b];
      });
      std::vector<uint32_t> ids(num_groups);
      for (uint32_t gi : order) {
        uint64_t key = index.keys()[gi];
        for (size_t g = num_groups; g-- > 0;) {
          uint32_t w = widths[g];
          ids[g] = static_cast<uint32_t>(key & ((1ULL << w) - 1));
          key >>= w;
        }
        Row row;
        row.reserve(num_groups + num_aggs * kAccumulatorFields);
        for (size_t g = 0; g < num_groups; ++g) {
          const Column& column = columns_[static_cast<size_t>(group_indices[g])];
          row.push_back(column.dictionary[ids[g]]);
        }
        for (size_t a = 0; a < num_aggs; ++a) {
          AppendAccumulator(&row, accs[gi * num_aggs + a]);
        }
        result.rows.push_back(std::move(row));
      }
      return result;
    }

    // Wide-key fallback (> 64 key bits): big-endian id strings into an
    // ordered map; map order is already ascending tuple order.
    std::map<std::string, std::vector<AggAccumulator>> groups;
    std::string key;
    for (size_t base = 0; base < num_rows_; base += kBatchRows) {
      size_t hi = std::min(base + kBatchRows, num_rows_);
      size_t n = sel.Extract(base, hi, rows.data());
      if (n == 0) continue;
      if (!filter_scanned) stats->rows_scanned += static_cast<int64_t>(n);
      ++stats->exec_batches;
      for (size_t g = 0; g < num_groups; ++g) {
        gather(columns_[static_cast<size_t>(group_indices[g])], base, hi - base,
               n, group_ids[g].data());
      }
      gather_agg_ids(base, hi - base, n);
      for (size_t i = 0; i < n; ++i) {
        key.clear();
        for (size_t g = 0; g < num_groups; ++g) bytes::PutBE32(&key, group_ids[g][i]);
        auto [it, inserted] = groups.try_emplace(key);
        if (inserted) it->second.resize(num_aggs);
        for (size_t a = 0; a < num_aggs; ++a) it->second[a].Add(agg_value(a, i));
      }
    }
    for (auto& [group_key, accs] : groups) {
      Row row;
      row.reserve(num_groups + num_aggs * kAccumulatorFields);
      for (size_t g = 0; g < num_groups; ++g) {
        uint32_t id = bytes::LoadBE32(group_key.data() + g * 4);
        const Column& column = columns_[static_cast<size_t>(group_indices[g])];
        row.push_back(column.dictionary[id]);
      }
      for (const AggAccumulator& acc : accs) AppendAccumulator(&row, acc);
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
  bool filter_scanned = false;
  Result<SelectionBitmap> sel_result =
      BuildSelection(prepared.filters, validity, &filter_scanned, stats);
  if (!sel_result.ok()) return sel_result.status();
  SelectionBitmap sel = std::move(sel_result.value());

  // Per-segment short-circuit only valid without ORDER BY.
  const bool can_short_circuit = query.limit >= 0 && query.order_by.empty();
  std::vector<std::vector<uint32_t>> select_ids(select_indices.size(),
                                                std::vector<uint32_t>(batch));
  for (size_t base = 0; base < num_rows_; base += kBatchRows) {
    size_t hi = std::min(base + kBatchRows, num_rows_);
    size_t n = sel.Extract(base, hi, rows.data());
    if (n == 0) continue;
    ++stats->exec_batches;
    for (size_t s = 0; s < select_indices.size(); ++s) {
      gather(columns_[static_cast<size_t>(select_indices[s])], base, hi - base,
             n, select_ids[s].data());
    }
    for (size_t i = 0; i < n; ++i) {
      if (!filter_scanned) ++stats->rows_scanned;
      Row row;
      row.reserve(select_indices.size());
      for (size_t s = 0; s < select_indices.size(); ++s) {
        const Column& column = columns_[static_cast<size_t>(select_indices[s])];
        row.push_back(column.dictionary[select_ids[s][i]]);
      }
      result.rows.push_back(std::move(row));
      if (can_short_circuit &&
          static_cast<int64_t>(result.rows.size()) >= query.limit) {
        return result;
      }
    }
  }
  return result;
}

}  // namespace uberrt::olap
