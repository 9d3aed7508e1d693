// Star-tree parity: the flat star-tree cube (sorted per-level id tuples plus
// flat count/sum/min/max arrays, answered by a binary-searched run scan) must
// answer every query exactly like the map-based cube it replaced. The oracle
// below keeps that cube's shape: per prefix length, a std::map from
// big-endian id-tuple strings to cells, built row by row, queried by a full
// level walk with std::map-keyed groups.
//
// Over 240 seeded segments (0-1000 rows, 1-3 star dims in varying column
// order, 0-2 metrics, sorted and unsorted, nulls and coerced cells, sums
// whose value depends on association) every query is checked bitwise: the
// same star-tree eligibility, the same rows in the same order, the same bits
// in every accumulator. The queries cover Eq on the leading dim, on a later
// dim and on both; two Eqs on one dim (same and different values); values
// missing from the dictionary and values that need coercion; COUNT-only and
// SUM/MIN/MAX/AVG; group-bys on and off the pinned prefix, in and out of dim
// order; and shapes the cube cannot answer.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>
#include <set>
#include <string>

#include "common/rng.h"
#include "olap/segment.h"

namespace uberrt::olap {
namespace {

constexpr int kSegments = 240;
constexpr int kRandomQueries = 24;

const char* const kDims[] = {"d0", "d1", "d2"};
const char* const kMetrics[] = {"m0", "m1"};

RowSchema Schema() {
  return RowSchema({{"d0", ValueType::kInt},
                    {"d1", ValueType::kString},
                    {"d2", ValueType::kDouble},
                    {"m0", ValueType::kDouble},
                    {"m1", ValueType::kInt},
                    {"x", ValueType::kInt}});
}

/// Column-type coercion, as segment build and execution apply it.
Value Coerce(ValueType type, const Value& v) {
  if (v.is_null() || v.type() == type) return v;
  switch (type) {
    case ValueType::kInt: return Value(static_cast<int64_t>(v.ToNumeric()));
    case ValueType::kDouble: return Value(v.ToNumeric());
    case ValueType::kBool: return Value(v.ToNumeric() != 0.0);
    case ValueType::kString: return Value(v.ToString());
    case ValueType::kNull: return v;
  }
  return v;
}

Value DimCell(int dim, Rng& rng, int64_t domain) {
  if (rng.Chance(0.03)) return Value::Null();
  int64_t k = rng.Uniform(0, domain - 1);
  switch (dim) {
    case 0:
      if (rng.Chance(0.05)) return Value(static_cast<double>(k));  // coerced to int
      return Value(k);
    case 1: return Value("s" + std::to_string(k));
    default:
      if (k == 0) return Value(rng.Chance(0.5) ? -0.0 : 0.0);
      return Value(static_cast<double>(k) / 2.0);
  }
}

Value MetricCell(int metric, Rng& rng) {
  if (rng.Chance(0.03)) return Value::Null();
  if (metric == 0) {
    // Magnitudes that make sums depend on the order they are added in.
    static const double kSpecial[] = {1e16, -1e16, 1.0, 0.5, -0.0, 0.0, 1e-3, 3.0};
    if (rng.Chance(0.5)) return Value(kSpecial[rng.Uniform(0, 7)]);
    return Value(rng.NextDouble() * 200.0 - 100.0);
  }
  if (rng.Chance(0.1)) return Value(rng.NextDouble() * 10.0);  // coerced to int
  return Value(rng.Uniform(-50, 50) * (rng.Chance(0.1) ? int64_t{1} << 40 : 1));
}

struct SegmentCase {
  std::shared_ptr<Segment> segment;
  SegmentIndexConfig config;
};

SegmentCase MakeSegment(int index) {
  Rng rng(7000 + static_cast<uint64_t>(index));
  static const size_t kSizes[] = {0, 1, 2, 5, 17, 100, 333, 1000};
  // Every size, including the empty and 1-row segments, recurs regularly.
  size_t num_rows = kSizes[index % 8];
  SegmentCase c;
  int64_t domains[3];  // per dim column d0..d2
  for (int64_t& domain : domains) {
    domain = rng.Chance(0.7) ? rng.Uniform(1, 8) : rng.Uniform(20, 300);
  }
  std::vector<Row> rows;
  for (size_t r = 0; r < num_rows; ++r) {
    rows.push_back({DimCell(0, rng, domains[0]), DimCell(1, rng, domains[1]),
                    DimCell(2, rng, domains[2]), MetricCell(0, rng), MetricCell(1, rng),
                    Value(rng.Uniform(0, 9))});
  }
  // 1-3 star dims in a seeded column order; 0-2 metrics.
  std::vector<int> order = {0, 1, 2};
  for (int i = 2; i > 0; --i) std::swap(order[i], order[rng.Uniform(0, i)]);
  const int num_dims = static_cast<int>(rng.Uniform(1, 3));
  for (int i = 0; i < num_dims; ++i) {
    c.config.star_tree_dimensions.push_back(kDims[order[static_cast<size_t>(i)]]);
  }
  switch (rng.Uniform(0, 3)) {
    case 0: break;
    case 1: c.config.star_tree_metrics = {"m0"}; break;
    case 2: c.config.star_tree_metrics = {"m1", "m0"}; break;
    default: c.config.star_tree_metrics = {"m0", "m1"}; break;
  }
  if (rng.Chance(0.3)) c.config.sorted_column = rng.Chance(0.5) ? "x" : "d0";
  if (rng.Chance(0.2)) c.config.inverted_columns = {"d1"};
  c.segment = Segment::Build("star_" + std::to_string(index), Schema(), std::move(rows),
                             c.config)
                  .value();
  return c;
}

// --- Oracle: the map-based cube ----------------------------------------------

void AppendU32BE(std::string* out, uint32_t v) {
  char buf[4] = {static_cast<char>(v >> 24), static_cast<char>(v >> 16),
                 static_cast<char>(v >> 8), static_cast<char>(v)};
  out->append(buf, 4);
}

uint32_t ReadU32BE(const char* p) {
  return (static_cast<uint32_t>(static_cast<unsigned char>(p[0])) << 24) |
         (static_cast<uint32_t>(static_cast<unsigned char>(p[1])) << 16) |
         (static_cast<uint32_t>(static_cast<unsigned char>(p[2])) << 8) |
         static_cast<uint32_t>(static_cast<unsigned char>(p[3]));
}

struct OracleCell {
  std::vector<double> sum;
  std::vector<double> min;
  std::vector<double> max;
  int64_t count = 0;
};

class OracleCube {
 public:
  OracleCube(const Segment& segment, const SegmentIndexConfig& config)
      : schema_(segment.schema()) {
    for (const std::string& d : config.star_tree_dimensions) {
      dims_.push_back(schema_.FieldIndex(d));
    }
    for (const std::string& m : config.star_tree_metrics) {
      metrics_.push_back(schema_.FieldIndex(m));
    }
    const size_t num_metrics = metrics_.size();
    // Dictionaries: the segment's cells are its dictionary representatives.
    dicts_.resize(dims_.size());
    for (size_t d = 0; d < dims_.size(); ++d) {
      std::set<Value> distinct;
      for (int64_t r = 0; r < segment.NumRows(); ++r) {
        distinct.insert(segment.GetValue(static_cast<size_t>(r), dims_[d]));
      }
      dicts_[d].assign(distinct.begin(), distinct.end());
    }
    levels_.resize(dims_.size());
    root_.sum.assign(num_metrics, 0);
    root_.min.assign(num_metrics, 0);
    root_.max.assign(num_metrics, 0);
    std::vector<uint32_t> ids(dims_.size());
    std::vector<double> values(num_metrics);
    for (int64_t r = 0; r < segment.NumRows(); ++r) {
      for (size_t d = 0; d < dims_.size(); ++d) {
        Value v = segment.GetValue(static_cast<size_t>(r), dims_[d]);
        ids[d] = static_cast<uint32_t>(
            std::lower_bound(dicts_[d].begin(), dicts_[d].end(), v) - dicts_[d].begin());
      }
      for (size_t m = 0; m < num_metrics; ++m) {
        values[m] = segment.GetValue(static_cast<size_t>(r), metrics_[m]).ToNumeric();
      }
      auto update = [&](OracleCell& cell) {
        if (cell.sum.empty()) {
          cell.sum.assign(num_metrics, 0);
          cell.min.assign(num_metrics, 0);
          cell.max.assign(num_metrics, 0);
        }
        for (size_t m = 0; m < num_metrics; ++m) {
          if (cell.count == 0) {
            cell.min[m] = values[m];
            cell.max[m] = values[m];
          } else {
            cell.min[m] = std::min(cell.min[m], values[m]);
            cell.max[m] = std::max(cell.max[m], values[m]);
          }
          cell.sum[m] += values[m];
        }
        ++cell.count;
      };
      update(root_);
      for (size_t k = 1; k <= dims_.size(); ++k) {
        std::string key;
        for (size_t i = 0; i < k; ++i) AppendU32BE(&key, ids[i]);
        update(levels_[k - 1][key]);
      }
    }
  }

  /// Cells per level, root included (the flat cube's StarTreeCellCounts).
  std::vector<size_t> CellCounts() const {
    std::vector<size_t> counts = {1};
    for (const auto& level : levels_) counts.push_back(level.size());
    return counts;
  }

  /// The map cube's answer, or nullopt when it cannot answer the query.
  std::optional<std::vector<Row>> Answer(const OlapQuery& query) const {
    if (query.aggregations.empty()) return std::nullopt;
    auto dim_position = [&](const std::string& name) {
      int idx = schema_.FieldIndex(name);
      for (size_t d = 0; d < dims_.size(); ++d) {
        if (dims_[d] == idx) return static_cast<int>(d);
      }
      return -1;
    };
    size_t max_prefix = 0;
    std::vector<std::pair<int, Value>> eq_filters;
    for (const FilterPredicate& pred : query.filters) {
      if (pred.op != FilterPredicate::Op::kEq) return std::nullopt;
      int pos = dim_position(pred.column);
      if (pos < 0) return std::nullopt;
      eq_filters.emplace_back(pos, pred.value);
      max_prefix = std::max(max_prefix, static_cast<size_t>(pos) + 1);
    }
    std::vector<int> group_positions;
    for (const std::string& g : query.group_by) {
      int pos = dim_position(g);
      if (pos < 0) return std::nullopt;
      group_positions.push_back(pos);
      max_prefix = std::max(max_prefix, static_cast<size_t>(pos) + 1);
    }
    std::vector<int> metric_slot(query.aggregations.size(), -1);
    for (size_t a = 0; a < query.aggregations.size(); ++a) {
      const OlapAggregation& agg = query.aggregations[a];
      if (agg.kind == OlapAggregation::Kind::kCount) continue;
      int idx = schema_.FieldIndex(agg.column);
      for (size_t m = 0; m < metrics_.size(); ++m) {
        if (metrics_[m] == idx) {
          metric_slot[a] = static_cast<int>(m);
          break;
        }
      }
      if (metric_slot[a] < 0) return std::nullopt;
    }
    std::vector<std::pair<int, uint32_t>> id_filters;
    for (const auto& [pos, value] : eq_filters) {
      const auto& dict = dicts_[static_cast<size_t>(pos)];
      const size_t column = static_cast<size_t>(dims_[static_cast<size_t>(pos)]);
      Value target = Coerce(schema_.fields()[column].type, value);
      auto lo = std::lower_bound(dict.begin(), dict.end(), target);
      auto hi = std::upper_bound(dict.begin(), dict.end(), target);
      if (lo == hi) return std::vector<Row>{};
      id_filters.emplace_back(pos, static_cast<uint32_t>(lo - dict.begin()));
    }
    struct GroupEntry {
      Row key_values;
      std::vector<AggAccumulator> accs;
    };
    std::map<std::string, GroupEntry> groups;
    auto fold_cell = [&](const std::vector<uint32_t>& prefix_ids, const OracleCell& cell) {
      std::string group_key;
      Row key_values;
      for (int pos : group_positions) {
        uint32_t id = prefix_ids[static_cast<size_t>(pos)];
        AppendU32BE(&group_key, id);
        key_values.push_back(dicts_[static_cast<size_t>(pos)][id]);
      }
      GroupEntry& entry = groups[group_key];
      if (entry.accs.empty()) {
        entry.key_values = std::move(key_values);
        entry.accs.resize(query.aggregations.size());
      }
      for (size_t a = 0; a < query.aggregations.size(); ++a) {
        AggAccumulator partial;
        partial.count = cell.count;
        int slot = metric_slot[a];
        if (slot >= 0) {
          partial.sum = cell.sum[static_cast<size_t>(slot)];
          partial.min = cell.min[static_cast<size_t>(slot)];
          partial.max = cell.max[static_cast<size_t>(slot)];
        }
        entry.accs[a].Merge(partial);
      }
    };
    if (max_prefix == 0) {
      fold_cell({}, root_);
    } else {
      std::vector<uint32_t> ids(max_prefix);
      for (const auto& [key, cell] : levels_[max_prefix - 1]) {
        for (size_t d = 0; d < max_prefix; ++d) ids[d] = ReadU32BE(key.data() + d * 4);
        bool match = true;
        for (const auto& [pos, id] : id_filters) {
          if (ids[static_cast<size_t>(pos)] != id) match = false;
        }
        if (match) fold_cell(ids, cell);
      }
    }
    std::vector<Row> rows;
    for (auto& [key, entry] : groups) {
      Row row = std::move(entry.key_values);
      for (const AggAccumulator& acc : entry.accs) AppendAccumulator(&row, acc);
      rows.push_back(std::move(row));
    }
    return rows;
  }

  /// A value of dim `pos`'s column: a dictionary member (sometimes spelled
  /// in another type, so the filter needs coercion) or one that is missing.
  Value FilterValue(size_t pos, Rng& rng, bool missing) const {
    const auto& dict = dicts_[pos];
    const ValueType type = schema_.fields()[static_cast<size_t>(dims_[pos])].type;
    if (missing || dict.empty()) {
      switch (type) {
        case ValueType::kInt: return Value(int64_t{987654321});
        case ValueType::kString: return Value("absent");
        default: return Value(-12345.25);
      }
    }
    const auto pick = rng.Uniform(0, static_cast<int64_t>(dict.size()) - 1);
    const Value& v = dict[static_cast<size_t>(pick)];
    if (type == ValueType::kInt && !v.is_null() && rng.Chance(0.3)) {
      return Value(v.ToNumeric());  // int column, double spelling
    }
    return v;
  }

  size_t num_dims() const { return dims_.size(); }
  const std::string& DimName(size_t pos) const {
    return schema_.fields()[static_cast<size_t>(dims_[pos])].name;
  }

 private:
  RowSchema schema_;
  std::vector<int> dims_;
  std::vector<int> metrics_;
  std::vector<std::vector<Value>> dicts_;
  std::vector<std::map<std::string, OracleCell>> levels_;
  OracleCell root_;
};

// --- Query generation ----------------------------------------------------------

/// What the generated queries covered, so the test proves it exercised each
/// shape instead of trusting the generator.
struct Coverage {
  int star_answers = 0;
  int nonempty_answers = 0;
  int fallbacks = 0;
  int leading_eq = 0;
  int later_eq = 0;
  int leading_and_later_eq = 0;
  int same_dim_twice = 0;
  int missing_value = 0;
  int count_only = 0;
  int with_metrics = 0;
  int group_off_prefix = 0;
  int empty_segment = 0;
  int one_row_segment = 0;
};

OlapAggregation RandomAggregation(Rng& rng) {
  const std::string metric = kMetrics[rng.Uniform(0, 1)];
  switch (rng.Uniform(0, 5)) {
    case 0: return OlapAggregation::Count("n");
    case 1: return OlapAggregation::Sum(metric, "s");
    case 2: return OlapAggregation::Min(metric, "lo");
    case 3: return OlapAggregation::Max(metric, "hi");
    case 4: return OlapAggregation::Avg(metric, "avg");
    default: return OlapAggregation::Sum("x", "sx");  // never a cube metric
  }
}

std::vector<OlapQuery> MakeQueries(const OracleCube& oracle, Rng& rng) {
  const size_t dims = oracle.num_dims();
  std::vector<OlapQuery> queries;
  auto aggs = [&](bool count_only) {
    if (count_only) return std::vector<OlapAggregation>{OlapAggregation::Count("n")};
    return std::vector<OlapAggregation>{OlapAggregation::Count("n"),
                                        OlapAggregation::Sum("m0", "s0"),
                                        OlapAggregation::Min("m0", "lo"),
                                        OlapAggregation::Max("m1", "hi")};
  };
  auto eq = [&](size_t pos, bool missing) {
    return FilterPredicate::Eq(oracle.DimName(pos), oracle.FilterValue(pos, rng, missing));
  };
  auto random_dim = [&] {
    return static_cast<size_t>(rng.Uniform(0, static_cast<int64_t>(dims) - 1));
  };
  // Fixed shapes, each with COUNT only and with metrics.
  for (bool count_only : {true, false}) {
    OlapQuery global;
    global.aggregations = aggs(count_only);
    queries.push_back(global);
    for (size_t g = 0; g < dims; ++g) {
      OlapQuery grouped = global;
      grouped.group_by = {oracle.DimName(g)};
      queries.push_back(grouped);
    }
    for (bool missing : {false, true}) {
      OlapQuery leading = global;
      leading.filters = {eq(0, missing)};
      if (dims > 1) leading.group_by = {oracle.DimName(dims - 1)};
      queries.push_back(leading);
      if (dims > 1) {
        OlapQuery later = global;
        later.filters = {eq(dims - 1, missing)};
        later.group_by = {oracle.DimName(0)};
        queries.push_back(later);
        OlapQuery both = global;
        both.filters = {eq(0, false), eq(1, missing)};
        both.group_by = {oracle.DimName(dims - 1), oracle.DimName(0)};
        queries.push_back(both);
      }
    }
    OlapQuery twice = global;
    twice.filters = {eq(0, false), eq(0, false)};
    queries.push_back(twice);
  }
  // Random shapes, including ones the cube must refuse.
  for (int q = 0; q < kRandomQueries; ++q) {
    OlapQuery query;
    const int64_t num_aggs = rng.Uniform(1, 3);
    for (int64_t a = 0; a < num_aggs; ++a) query.aggregations.push_back(RandomAggregation(rng));
    const int64_t num_filters = rng.Uniform(0, 3);
    for (int64_t f = 0; f < num_filters; ++f) {
      if (rng.Chance(0.1)) {
        query.filters.push_back(FilterPredicate::Eq("x", Value(rng.Uniform(0, 9))));
      } else if (rng.Chance(0.05)) {
        query.filters.push_back(FilterPredicate::Range(
            oracle.DimName(0), FilterPredicate::Op::kGe, Value(int64_t{1})));
      } else {
        const size_t pos = random_dim();
        query.filters.push_back(eq(pos, rng.Chance(0.15)));
      }
    }
    const int64_t num_groups = rng.Uniform(0, 2);
    for (int64_t g = 0; g < num_groups; ++g) {
      if (rng.Chance(0.1)) {
        query.group_by.push_back("m1");  // not a star dim
      } else {
        query.group_by.push_back(oracle.DimName(random_dim()));
      }
    }
    queries.push_back(std::move(query));
  }
  return queries;
}

void Count(const OracleCube& oracle, const OlapQuery& query, const std::vector<Row>& rows,
           int64_t num_rows, Coverage* cov) {
  ++cov->star_answers;
  if (!rows.empty()) ++cov->nonempty_answers;
  if (num_rows == 0) ++cov->empty_segment;
  if (num_rows == 1) ++cov->one_row_segment;
  std::vector<int> eq_dims;
  for (const FilterPredicate& f : query.filters) {
    for (size_t d = 0; d < oracle.num_dims(); ++d) {
      if (oracle.DimName(d) == f.column) eq_dims.push_back(static_cast<int>(d));
    }
    if (f.value == Value(int64_t{987654321}) || f.value == Value("absent") ||
        f.value == Value(-12345.25)) {
      ++cov->missing_value;
    }
  }
  const bool leading = std::count(eq_dims.begin(), eq_dims.end(), 0) > 0;
  const bool later = std::any_of(eq_dims.begin(), eq_dims.end(), [](int d) { return d > 0; });
  if (leading && later) ++cov->leading_and_later_eq;
  else if (leading) ++cov->leading_eq;
  else if (later) ++cov->later_eq;
  std::sort(eq_dims.begin(), eq_dims.end());
  if (std::adjacent_find(eq_dims.begin(), eq_dims.end()) != eq_dims.end()) {
    ++cov->same_dim_twice;
  }
  const bool count_only = std::all_of(
      query.aggregations.begin(), query.aggregations.end(),
      [](const OlapAggregation& a) { return a.kind == OlapAggregation::Kind::kCount; });
  if (count_only) ++cov->count_only; else ++cov->with_metrics;
  for (const std::string& g : query.group_by) {
    if (g != oracle.DimName(0)) ++cov->group_off_prefix;
  }
}

std::vector<std::string> Encoded(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  for (const Row& row : rows) out.push_back(EncodeRow(row));
  return out;
}

TEST(StarTreeParityTest, FlatCubeMatchesMapCubeBitwise) {
  Coverage cov;
  for (int i = 0; i < kSegments; ++i) {
    SCOPED_TRACE("segment " + std::to_string(i));
    SegmentCase c = MakeSegment(i);
    const Segment& segment = *c.segment;
    OracleCube oracle(segment, c.config);
    ASSERT_EQ(segment.StarTreeCellCounts(), oracle.CellCounts());
    Rng rng(90000 + static_cast<uint64_t>(i));
    for (const OlapQuery& query : MakeQueries(oracle, rng)) {
      std::optional<std::vector<Row>> expected = oracle.Answer(query);
      OlapQueryStats stats;
      Result<OlapResult> got = segment.Execute(query, nullptr, &stats);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_EQ(stats.star_tree_hits, expected.has_value() ? 1 : 0)
          << CanonicalQueryKey(query);
      if (!expected.has_value()) {
        ++cov.fallbacks;
        continue;
      }
      ASSERT_EQ(Encoded(got.value().rows), Encoded(*expected)) << CanonicalQueryKey(query);
      Count(oracle, query, *expected, segment.NumRows(), &cov);
    }
  }
  std::printf(
      "star answers %d (non-empty %d), fallbacks %d; eq leading %d, later %d, both %d, "
      "same dim twice %d, missing value %d; count-only %d, metrics %d; group off prefix "
      "%d; empty segment %d, 1-row segment %d\n",
      cov.star_answers, cov.nonempty_answers, cov.fallbacks, cov.leading_eq, cov.later_eq,
      cov.leading_and_later_eq, cov.same_dim_twice, cov.missing_value, cov.count_only,
      cov.with_metrics, cov.group_off_prefix, cov.empty_segment, cov.one_row_segment);
  // About half of what the seeds produce: a generator change that stops
  // reaching a shape fails here.
  EXPECT_GT(cov.star_answers, 2400);
  EXPECT_GT(cov.nonempty_answers, 1400);
  EXPECT_GT(cov.fallbacks, 2500);
  EXPECT_GT(cov.leading_eq, 800);
  EXPECT_GT(cov.later_eq, 400);
  EXPECT_GT(cov.leading_and_later_eq, 400);
  EXPECT_GT(cov.same_dim_twice, 400);
  EXPECT_GT(cov.missing_value, 800);
  EXPECT_GT(cov.count_only, 1200);
  EXPECT_GT(cov.with_metrics, 1200);
  EXPECT_GT(cov.group_off_prefix, 1000);
  EXPECT_GT(cov.empty_segment, 300);
  EXPECT_GT(cov.one_row_segment, 300);
}

TEST(StarTreeParityTest, MemoryChargesTheFlatArrays) {
  for (int i = 0; i < kSegments; i += 7) {
    SCOPED_TRACE("segment " + std::to_string(i));
    SegmentCase c = MakeSegment(i);
    const std::vector<size_t> cells = c.segment->StarTreeCellCounts();
    ASSERT_EQ(cells.size(), c.config.star_tree_dimensions.size() + 1);
    const size_t metrics = c.config.star_tree_metrics.size();
    int64_t arrays = 0;  // ids + count + sum/min/max, at their sizes
    for (size_t k = 0; k < cells.size(); ++k) {
      arrays += static_cast<int64_t>(cells[k] * (k * sizeof(uint32_t) + sizeof(int64_t) +
                                                 metrics * 3 * sizeof(double)));
    }
    const int64_t star = c.segment->StarTreeMemoryBytes();
    EXPECT_GE(star, arrays);
    EXPECT_LE(star, arrays + static_cast<int64_t>(cells.size()) * 256);
    // Without a cube nothing is charged for one.
    SegmentIndexConfig plain = c.config;
    plain.star_tree_dimensions.clear();
    std::vector<Row> rows;
    for (int64_t r = 0; r < c.segment->NumRows(); ++r) {
      rows.push_back(c.segment->GetRow(static_cast<size_t>(r)));
    }
    auto without = Segment::Build("plain", Schema(), std::move(rows), plain).value();
    EXPECT_EQ(without->StarTreeMemoryBytes(), 0);
    EXPECT_EQ(c.segment->MemoryBytes() - star, without->MemoryBytes());
  }
}

}  // namespace
}  // namespace uberrt::olap
