#ifndef UBERRT_OLAP_SEGMENT_H_
#define UBERRT_OLAP_SEGMENT_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "olap/bitmap.h"
#include "olap/query.h"

namespace uberrt::bytes {
class ByteReader;
}  // namespace uberrt::bytes

namespace uberrt::olap {

/// Bit-packed unsigned integer vector: n values of ceil(log2(cardinality))
/// bits each — Pinot's "bit compressed forward indices" that the paper
/// credits for its small footprint versus Druid (Section 4.3).
class BitPackedVector {
 public:
  BitPackedVector() = default;
  /// Packs `values`, sizing cells for `max_value`.
  BitPackedVector(const std::vector<uint32_t>& values, uint32_t max_value);

  /// Adopts an already-packed word array (deserialization fast path — no
  /// unpack/repack round trip). `bits` must be in [1, 32] and `words` must
  /// hold exactly ceil(size*bits/64) entries.
  static Result<BitPackedVector> FromWords(int bits, size_t size,
                                           std::vector<uint64_t> words);

  uint32_t Get(size_t index) const;
  /// Batch decoder: writes `count` dict ids starting at row `start` into
  /// `out`. One pass over the underlying words instead of per-value bit
  /// arithmetic; the vectorized engine calls this with 1-4K rows at a time
  /// into a reusable buffer (also used by index rebuild and blob
  /// validation on deserialize).
  void Unpack(size_t start, size_t count, uint32_t* out) const;
  size_t size() const { return size_; }
  int64_t MemoryBytes() const {
    return static_cast<int64_t>(words_.capacity() * sizeof(uint64_t)) + 24;
  }
  int bits_per_value() const { return bits_; }
  const std::vector<uint64_t>& words() const { return words_; }

 private:
  int bits_ = 1;
  size_t size_ = 0;
  std::vector<uint64_t> words_;
};

/// Per-column index configuration (paper Section 4.3: inverted, range,
/// sorted and star-tree indexes).
struct SegmentIndexConfig {
  std::vector<std::string> inverted_columns;
  /// At most one; rows are sorted by it at build time, giving contiguous
  /// row ranges per value (and for value ranges).
  std::string sorted_column;
  /// Star-tree pre-aggregation: split-order dimensions and metric columns.
  /// Aggregates per dimension-prefix combination; answers filter/group-by
  /// queries that touch only these dimensions in O(cube) instead of O(rows).
  std::vector<std::string> star_tree_dimensions;
  std::vector<std::string> star_tree_metrics;
  /// Disable to emulate plain 32-bit forward indexes (Druid-like baseline).
  bool bit_packed_forward_index = true;
};

/// One filter predicate resolved once per query against the table schema
/// (every segment of a table carries that schema): the column index, the
/// value coerced to the column's type exactly as segment execution coerces
/// it, and, for equality, the coerced value's bloom hash. Pruning and
/// execution read these instead of re-resolving, re-coercing and re-hashing
/// in every segment.
struct PreparedPredicate {
  const FilterPredicate* pred = nullptr;
  int column = -1;  ///< index in the schema; -1 = unknown column
  Value target;
  uint64_t bloom_hash = 0;  ///< kEq only
};

/// The per-query work hoisted out of the per-segment loops: filter, group-by
/// and aggregate columns resolved once against the schema. Borrows `query`,
/// which must outlive it.
struct PreparedQuery {
  PreparedQuery(const OlapQuery& query, const RowSchema& schema);

  const OlapQuery& query;
  size_t num_fields = 0;  ///< of the schema it was resolved against
  std::vector<PreparedPredicate> filters;  ///< parallel to query.filters
  std::vector<int> group_by;               ///< column per name; -1 = unknown
  std::vector<int> aggregations;           ///< column per aggregation; -1 = none/unknown
};

/// Always-resident pruning metadata for a segment whose columns may not be
/// decoded (warm tier) or not in memory at all (cold tier): per-column
/// min/max plus the bloom membership words, detached from the segment so
/// `PlanMorsels` prunes demoted segments without materializing them. Built
/// once at seal from the hot segment's zone maps. Strictly conservative
/// relative to Segment::CanMatch: equality has no exact dictionary
/// backstop, so a bloom false positive scans a segment the hot check would
/// have skipped — never the reverse.
class SegmentPruneInfo {
 public:
  struct ColumnPrune {
    std::string name;
    ValueType type = ValueType::kNull;
    bool any_rows = false;
    Value min;
    Value max;
    std::vector<uint64_t> bloom;  ///< empty = no bloom (low cardinality)
    uint64_t bloom_mask = 0;
  };

  SegmentPruneInfo() = default;
  explicit SegmentPruneInfo(std::vector<ColumnPrune> columns)
      : columns_(std::move(columns)) {}

  /// False means no row can satisfy `pred` (safe to skip the segment).
  bool CanMatch(const PreparedPredicate& pred) const;

  int64_t MemoryBytes() const;
  bool empty() const { return columns_.empty(); }

 private:
  std::vector<ColumnPrune> columns_;
};

/// Immutable columnar segment: dictionary-encoded columns with a bit-packed
/// forward index and the optional indexes above. Built once from rows,
/// then served concurrently (read-only).
///
/// A segment can also be opened *lazily* over a serialized blob
/// (DeserializeLazy): only the header is parsed up front and each column's
/// dictionary + forward index decode on first touch, synchronized by an
/// internal mutex (decode is monotone — a column never un-decodes, so
/// readers that Ensure'd their columns proceed lock-free afterwards).
class Segment {
 public:
  /// Builds a segment; rows are reordered if a sorted column is configured.
  /// On success `rows` is consumed (cells are coerced in place and the
  /// dictionary entries moved out of it; clear it afterwards). On error it
  /// is left untouched, so a failed seal keeps its consuming buffer.
  static Result<std::shared_ptr<Segment>> Build(std::string name, RowSchema schema,
                                                std::vector<Row>&& rows,
                                                SegmentIndexConfig config);

  const std::string& name() const { return name_; }
  const RowSchema& schema() const { return schema_; }
  int64_t NumRows() const { return static_cast<int64_t>(num_rows_); }

  /// Materializes one row (dictionary-decoded).
  Row GetRow(size_t row_index) const;
  /// One cell.
  Value GetValue(size_t row_index, int column_index) const;

  /// Executes filter+aggregate/select on this segment. `validity` (may be
  /// null) marks rows superseded by upserts; invalid rows are skipped.
  /// Grouped results are keyed rows [group cols..., agg accumulators...]
  /// merged later by the broker; accumulator layout documented in
  /// MergeGroupedResults.
  ///
  /// Default path is the vectorized engine: star-tree short-circuit, then
  /// selection bitmaps + batched forward-index decode + typed (dict-id
  /// native) aggregation kernels. `query.force_scalar` runs the
  /// row-at-a-time oracle instead (no star-tree, per-value decode).
  Result<OlapResult> Execute(const OlapQuery& query,
                             const std::vector<bool>* validity,
                             OlapQueryStats* stats) const;
  /// Same, with the query already resolved against this segment's schema
  /// (the table's): the per-segment entry of the query path.
  Result<OlapResult> Execute(const PreparedQuery& prepared,
                             const std::vector<bool>* validity,
                             OlapQueryStats* stats) const;

  /// Approximate resident memory: dictionaries + forward + inverted +
  /// star-tree (the flat cube arrays at their real capacities).
  int64_t MemoryBytes() const;
  /// The star-tree cube's share of MemoryBytes.
  int64_t StarTreeMemoryBytes() const;
  /// Cells per cube level, index = prefix length (level 0 is the single
  /// root cell); empty without a star-tree.
  std::vector<size_t> StarTreeCellCounts() const;

  /// Zone-map / bloom pruning probe: false means NO row of this segment can
  /// satisfy `pred`, so the whole segment may be skipped without executing.
  /// Conservative: unknown columns return true (the execute path then
  /// reports the error exactly as an unpruned scan would). Range operators
  /// compare against the per-column min/max; equality consults the
  /// bloom-style membership filter (high-cardinality columns) or the
  /// dictionary itself.
  bool CanMatch(const PreparedPredicate& pred) const;

  /// Columnar serialization (dictionaries + packed forward indexes + bloom
  /// filters); inverted/star-tree indexes are rebuilt on load.
  std::string Serialize() const;
  static Result<std::shared_ptr<Segment>> Deserialize(const std::string& blob);

  /// Warm-tier open: parses only the header at `offset` and defers each
  /// column's dictionary + forward index to first touch. The blob stays
  /// pinned (shared) for the segment's lifetime. Lazy segments carry no
  /// inverted/star-tree indexes and no zone maps — plan-time pruning for
  /// them lives in the detached SegmentPruneInfo.
  static Result<std::shared_ptr<Segment>> DeserializeLazy(
      std::shared_ptr<const std::string> blob, size_t offset);

  /// Decodes every still-lazy column (recovery replay, compaction, full
  /// promotion). No-op on eager segments.
  Status EnsureAllColumns() const;
  bool IsLazy() const { return lazy_ != nullptr; }

  /// Detached pruning metadata (see SegmentPruneInfo). Requires decoded
  /// zone maps, i.e. an eagerly built/deserialized segment.
  SegmentPruneInfo BuildPruneInfo() const;

  /// Serialized size without serializing (for footprint accounting).
  int64_t DiskBytes() const;

  bool HasStarTree() const { return !star_tree_.empty(); }

 private:
  Segment() = default;

  struct Column {
    ValueType type = ValueType::kNull;
    std::vector<Value> dictionary;  ///< sorted
    /// dict id -> ToNumeric(), built once per segment so the aggregation
    /// kernels never construct a Value on the scan path.
    std::vector<double> dict_numeric;
    BitPackedVector packed;         ///< dict ids per row (when packing on)
    std::vector<uint32_t> plain;    ///< dict ids per row (packing off)
    bool has_inverted = false;
    std::vector<std::vector<uint32_t>> inverted;  ///< dict id -> sorted row ids

    uint32_t IdAt(size_t row) const {
      return plain.empty() ? packed.Get(row) : plain[row];
    }
    /// Batch decode of rows [start, start+count) into `out`.
    void UnpackRange(size_t start, size_t count, uint32_t* out) const;
    int64_t MemoryBytes() const;
    /// Fills dict_numeric from the dictionary.
    void BuildDictNumeric();
    /// Decodes one serialized column payload — the dictionary row, then the
    /// plain ids or the packed words — and rejects any id outside the
    /// dictionary, so hostile blobs cannot drive out-of-range lookups. The
    /// one column decoder behind Deserialize and EnsureColumnIndexes.
    Status Decode(bytes::ByteReader* in, uint64_t num_rows, bool bit_packed);
  };

  /// Per-column pruning metadata, computed at seal (Build) and carried
  /// through serialization. min/max fall out of the sorted dictionary; the
  /// bloom filter covers every distinct value of high-cardinality columns
  /// so equality predicates prune in O(1) probes. With dictionaries
  /// resident the bloom is a fast pre-filter backed by an exact dictionary
  /// check; it is serialized so a future tiered (dictionary-not-resident)
  /// path can prune from the zone map alone.
  struct ZoneMap {
    Value min;
    Value max;
    std::vector<uint64_t> bloom;  ///< empty = no bloom (low cardinality)
    uint64_t bloom_mask = 0;      ///< bit count - 1 (bit count is a power of 2)

    bool MayContain(uint64_t hash) const;
  };

  /// One star-tree cube level: the cells of prefix length k (star dims
  /// 0..k-1), one per distinct dict-id tuple, sorted lexicographically by
  /// tuple. Flat arrays: `ids` holds k ids per cell, `count` one value per
  /// cell, `sum`/`min`/`max` one value per cell per metric.
  struct StarTreeLevel {
    std::vector<uint32_t> ids;
    std::vector<int64_t> count;
    std::vector<double> sum;
    std::vector<double> min;
    std::vector<double> max;

    int64_t MemoryBytes() const;
  };

  /// Deferred decode state for DeserializeLazy. `decoded[c]` flips true
  /// exactly once, under `mu`; the mutex acquisition in Ensure* gives
  /// readers their happens-before edge to the decoded column data.
  struct LazySource {
    std::shared_ptr<const std::string> blob;
    size_t base_offset = 0;  ///< segment blob = [base_offset, blob->size())
    std::vector<size_t> column_pos;  ///< where each column's payload starts
    std::mutex mu;
    std::vector<bool> decoded;  // guarded by mu
  };

  /// Decodes the given columns if still lazy; counts each actual decode
  /// into `stats->columns_materialized` (stats may be null).
  Status EnsureColumnIndexes(const std::vector<int>& indexes,
                             OlapQueryStats* stats) const;
  /// Ensure for every column the query names (filters, group-by,
  /// aggregates, selects). Unknown names are skipped so execution reports
  /// the same InvalidArgument an eager segment would.
  Status EnsureForQuery(const OlapQuery& query, OlapQueryStats* stats) const;

  void BuildIndexes(const SegmentIndexConfig& config);
  /// Fills zones_ from the sorted dictionaries; `keep_blooms` preserves
  /// bloom words adopted from a serialized blob instead of rehashing.
  void BuildZoneMaps(bool keep_blooms = false);
  int ColumnIndex(const std::string& name) const { return schema_.FieldIndex(name); }
  /// Dict-id range [lo, hi) of the ids satisfying `op target`, where
  /// `target` is already coerced to the column's type.
  Result<std::pair<uint32_t, uint32_t>> PredicateIdRange(const Column& column,
                                                         FilterPredicate::Op op,
                                                         const Value& target) const;
  /// Row ids matching all predicates; `all` set true when unfiltered.
  /// Scalar-oracle path only; the vectorized engine uses BuildSelection.
  Result<std::vector<uint32_t>> FilterRows(const std::vector<FilterPredicate>& preds,
                                           bool* all, int64_t* rows_scanned) const;
  bool TryStarTree(const PreparedQuery& prepared, const std::vector<bool>* validity,
                   OlapResult* result) const;

  // --- Vectorized engine (segment_exec.cc) --------------------------------
  /// Evaluates all predicates + validity into a selection bitmap. Index-
  /// servable predicates become bitmap kernels; the rest run as one batched
  /// scan pass. `filter_scanned` reports whether that scan pass examined
  /// rows (it then owns the rows_scanned accounting for this query).
  Result<SelectionBitmap> BuildSelection(const std::vector<PreparedPredicate>& preds,
                                         const std::vector<bool>* validity,
                                         bool* filter_scanned,
                                         OlapQueryStats* stats) const;
  Result<OlapResult> ExecuteVectorized(const PreparedQuery& prepared,
                                       const std::vector<bool>* validity,
                                       OlapQueryStats* stats) const;
  /// The seed row-at-a-time engine, kept as the parity oracle.
  Result<OlapResult> ExecuteScalar(const OlapQuery& query,
                                   const std::vector<bool>* validity,
                                   OlapQueryStats* stats) const;

  std::string name_;
  RowSchema schema_;
  size_t num_rows_ = 0;
  /// Mutable only through the monotone lazy decode (Ensure*); immutable
  /// once decoded and always immutable for eager segments.
  mutable std::vector<Column> columns_;
  std::vector<ZoneMap> zones_;  ///< parallel to columns_; empty when lazy
  SegmentIndexConfig config_;
  int sorted_column_ = -1;
  /// Set iff opened via DeserializeLazy; never reset once set.
  mutable std::unique_ptr<LazySource> lazy_;

  /// Star-tree cube: star_tree_[k] is the level of prefix length k
  /// (0..dims); empty when the segment has no star-tree.
  std::vector<StarTreeLevel> star_tree_;
  std::vector<int> star_dims_;     ///< column indexes of dimensions
  std::vector<int> star_metrics_;  ///< column indexes of metrics
};

}  // namespace uberrt::olap

#endif  // UBERRT_OLAP_SEGMENT_H_
