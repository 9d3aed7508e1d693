#ifndef UBERRT_OLAP_TABLE_H_
#define UBERRT_OLAP_TABLE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "olap/lifecycle.h"
#include "olap/query.h"
#include "olap/segment.h"

namespace uberrt::olap {

/// Table-level configuration.
struct TableConfig {
  std::string name;
  RowSchema schema;
  /// Time column for segment time-boundary pruning ("" = none).
  std::string time_column;
  SegmentIndexConfig index_config;
  /// Rows buffered in the consuming segment before sealing.
  int64_t segment_rows_threshold = 10'000;
  /// Upsert (Section 4.3.1): rows with the same primary key replace earlier
  /// ones. Requires the input stream partitioned by primary key and
  /// disables the sorted column (row order must stay stable).
  bool upsert_enabled = false;
  std::string primary_key_column;
  /// Seal with only the cheap per-column structures (dictionaries, packing,
  /// zone maps); inverted and star-tree indexes are built later by the
  /// background compaction pass, off the write path.
  bool deferred_index_build = false;
};

/// All data of one stream partition of a table, hosted by exactly one
/// server — the shared-nothing unit of Pinot's upsert design
/// (Section 4.3.1): because the input stream is partitioned by primary key,
/// every record of a key lands here, so key -> location tracking is local.
class RealtimePartition {
 public:
  /// `lifecycle` may be null (standalone use): sealed segments then get
  /// unmanaged handles that stay hot forever.
  RealtimePartition(const TableConfig& config, int32_t partition_id,
                    LifecycleManager* lifecycle = nullptr);

  /// Appends one row to the consuming segment; with upsert enabled,
  /// invalidates the key's previous location.
  Status Ingest(Row row);

  /// Seals the consuming buffer into an immutable segment (no-op when the
  /// buffer is under the threshold unless `force`). Returns the new segment
  /// or nullptr when nothing was sealed.
  Result<std::shared_ptr<Segment>> SealIfNeeded(bool force = false);

  /// Executes a query over all sealed segments + the consuming buffer.
  /// Results are partial rows (see AggAccumulator). Equivalent to
  /// PlanMorsels + ExecuteMorsel over every planned morsel in order — the
  /// broker's parallel path runs exactly that decomposition, so serial and
  /// morsel-parallel results are identical by construction.
  Result<OlapResult> Execute(const OlapQuery& query, OlapQueryStats* stats) const;

  /// Plans this partition's morsels (units of query work) for a query
  /// prepared against the table schema: one per sealed
  /// segment that survives time-window + zone-map/bloom pruning, plus one
  /// for the consuming buffer (always planned, so errors like unknown
  /// columns surface identically with or without pruning). Appends segment
  /// indexes (>= 0) then -1 for the buffer; pruned segments are counted in
  /// stats->segments_pruned. Pruning never materializes a warm/cold
  /// segment: demoted segments answer from their resident SegmentPruneInfo.
  void PlanMorsels(const PreparedQuery& prepared, std::vector<int32_t>* morsels,
                   OlapQueryStats* stats) const;

  /// Executes one planned morsel (-1 = consuming buffer). A warm or cold
  /// sealed segment is transparently (re)materialized via its handle; the
  /// tier served is counted in stats->segments_{hot,warm,cold}.
  Result<OlapResult> ExecuteMorsel(const PreparedQuery& prepared, int32_t morsel,
                                   OlapQueryStats* stats) const;

  int64_t NumRows() const;
  /// Rows currently in the (unsealed) consuming buffer.
  int64_t BufferedRows() const { return static_cast<int64_t>(buffer_.size()); }
  int64_t segment_rows_threshold() const { return config_.segment_rows_threshold; }
  int64_t NumSealedSegments() const { return static_cast<int64_t>(sealed_.size()); }
  /// Resident (process-memory) bytes: consuming buffer + the current
  /// representation of each sealed segment (a cold segment costs only its
  /// prune info).
  int64_t MemoryBytes() const;
  int32_t partition_id() const { return partition_id_; }

  /// Sealed segments with their validity vectors (for replication and
  /// recovery). `handle` is shared (not copied) with peer replicas so an
  /// upsert invalidation, demotion or compaction swap that lands after
  /// replication is visible to every holder of the segment. `validity` is
  /// the same shared vector the handle carries (null = all rows valid).
  struct SealedSegment {
    std::shared_ptr<SegmentHandle> handle;
    /// Upsert tables only; null = all rows valid.
    std::shared_ptr<std::vector<bool>> validity;
  };
  const std::vector<SealedSegment>& sealed() const { return sealed_; }

  /// Drops all sealed segments (simulated server loss) keeping the
  /// consuming buffer; recovery re-adds them via RestoreSegment. Upsert
  /// locations pointing into the dropped segments are erased — a later
  /// Ingest for such a key must not write through a stale index.
  void DropSealedSegments();
  void RestoreSegment(SealedSegment segment);
  bool HasSegment(const std::string& name) const;

  /// Call after a batch of RestoreSegment calls: re-sorts sealed segments
  /// by seal sequence and, for upsert tables, rebuilds the key->location
  /// index and every validity vector by replaying segments in seal order
  /// followed by the consuming buffer. Archived validity snapshots may be
  /// stale; the replay recomputes the truth from row contents (the stream
  /// is partitioned by primary key, so every version of a key is local).
  /// Fails if a restored segment cannot be materialized for the replay.
  Status FinishRestore();

  /// Background-compaction handshake: claims (at most once each) the sealed
  /// segments flagged for a deferred index build and appends their handles.
  void ClaimPendingCompactions(
      std::vector<std::shared_ptr<SegmentHandle>>* out) const;
  /// The full index configuration a compaction rebuild should use (sorted
  /// column cleared for upsert tables — row order must stay stable).
  SegmentIndexConfig CompactionIndexConfig() const;

 private:
  struct UpsertLocation {
    int32_t segment_index = -1;  ///< -1 = consuming buffer
    uint32_t row_index = 0;
  };

  Result<OlapResult> ExecuteOnBuffer(const PreparedQuery& prepared,
                                     OlapQueryStats* stats) const;
  /// Recomputes upsert_locations_ + validity from current contents.
  Status RebuildUpsertState();

  TableConfig config_;
  int32_t partition_id_;
  LifecycleManager* lifecycle_ = nullptr;
  int primary_key_index_ = -1;
  int time_index_ = -1;

  std::vector<Row> buffer_;
  std::vector<bool> buffer_validity_;
  std::vector<SealedSegment> sealed_;
  /// Names of the sealed segments, for O(1) HasSegment (recovery checks it
  /// once per replica per restored segment).
  std::unordered_set<std::string> sealed_names_;
  std::map<std::string, UpsertLocation> upsert_locations_;
  int64_t next_segment_seq_ = 0;
};

/// Evaluates one predicate against a concrete value (used by the consuming
/// buffer's row-at-a-time path and by the SQL layer's residual filters).
bool EvalPredicate(const FilterPredicate& pred, const Value& v);

}  // namespace uberrt::olap

#endif  // UBERRT_OLAP_TABLE_H_
