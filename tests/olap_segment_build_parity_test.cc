// Segment-build parity: the seal kernel (Segment::Build's dictionary
// encoding) must produce byte-identical segments to the original
// set-based builder. Two independent checks:
//
//   1. Golden digests. For 120 seeded inputs, the FNV-1a digest of the
//      URT_SEG1 frame, the resident footprint (star-tree share as per-level
//      cell counts, see Digest) and two query results (one served by the
//      star-tree / inverted index when configured) must match the digests
//      the set-based builder produced for the same inputs.
//   2. A std::set oracle. Every cell of every built segment must be exactly
//      (same type, same bits) the member a std::set<Value> keeps for that
//      cell's coerced equivalence class, i.e. the first-seen representative
//      in segment row order.
//
// The inputs cover nulls, cells that need coercion (int <-> double <->
// string <-> bool), distinct ints >= 2^53 that compare equal under
// ToNumeric, -0.0 next to 0.0, all-unique and all-equal columns, 0/1/10k-row
// segments, and sorted, inverted, star-tree and unpacked configurations.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/hash.h"
#include "common/rng.h"
#include "olap/lifecycle.h"
#include "olap/segment.h"

namespace uberrt::olap {
namespace {

constexpr int kCases = 120;

RowSchema ParitySchema() {
  return RowSchema({{"i", ValueType::kInt},
                    {"d", ValueType::kDouble},
                    {"s", ValueType::kString},
                    {"b", ValueType::kBool},
                    {"x", ValueType::kNull}});  // untyped: keeps mixed cells
}

/// How one column's cells are drawn.
enum class Mode { kClean, kNulls, kMixed, kUnique, kEqual, kBigInt, kCount };

Value TypedCell(ValueType type, Rng& rng, int64_t domain) {
  int64_t k = rng.Uniform(0, domain - 1);
  switch (type) {
    case ValueType::kInt: return Value(k - domain / 2);
    case ValueType::kDouble:
      if (rng.Chance(0.05)) return Value(rng.Chance(0.5) ? -0.0 : 0.0);
      return Value(static_cast<double>(k - domain / 2) / 4.0);
    case ValueType::kString: return Value("v" + std::to_string(k));
    case ValueType::kBool: return Value(k % 2 == 0);
    case ValueType::kNull: break;
  }
  return Value::Null();
}

/// A cell of some type other than the column's, so Build must coerce it.
Value ForeignCell(ValueType type, Rng& rng, int64_t domain) {
  static const ValueType kTypes[] = {ValueType::kInt, ValueType::kDouble,
                                     ValueType::kString, ValueType::kBool};
  ValueType other = type;
  while (other == type) other = kTypes[rng.Uniform(0, 3)];
  if (other == ValueType::kString && rng.Chance(0.5)) {
    return Value(std::to_string(rng.Uniform(0, domain - 1)));  // numeric-looking
  }
  return TypedCell(other, rng, domain);
}

Value MakeCell(ValueType type, Mode mode, Rng& rng, int64_t domain, size_t row) {
  ValueType draw = type == ValueType::kNull ? ValueType::kInt : type;
  switch (mode) {
    case Mode::kClean: return TypedCell(draw, rng, domain);
    case Mode::kNulls:
      return rng.Chance(0.15) ? Value::Null() : TypedCell(draw, rng, domain);
    case Mode::kMixed:
      if (rng.Chance(0.1)) return Value::Null();
      if (rng.Chance(0.3)) return ForeignCell(draw, rng, domain);
      return TypedCell(draw, rng, domain);
    case Mode::kUnique:
      switch (draw) {
        case ValueType::kInt: return Value(static_cast<int64_t>(row) * 3 - 7);
        case ValueType::kDouble: return Value(static_cast<double>(row) + 0.5);
        case ValueType::kString: return Value("u" + std::to_string(row * 7919 % 100003));
        default: return Value(row % 2 == 0);
      }
    case Mode::kEqual: {
      Rng fixed(7);
      return TypedCell(draw, fixed, 3);
    }
    case Mode::kBigInt: {
      // 2^53 + k: neighbours compare equal once widened to double.
      int64_t big = (int64_t{1} << 53) + rng.Uniform(0, 7);
      if (rng.Chance(0.3)) big = -big;
      if (type == ValueType::kDouble && rng.Chance(0.5)) {
        return Value(static_cast<double>(big));
      }
      return Value(big);
    }
    case Mode::kCount: break;
  }
  return Value::Null();
}

struct ParityCase {
  std::vector<Row> rows;
  SegmentIndexConfig config;
};

ParityCase MakeCase(int index) {
  Rng rng(1000 + static_cast<uint64_t>(index));
  static const size_t kSizes[] = {0, 1, 2, 17, 100, 333, 1000, 2500};
  size_t num_rows = index % 20 == 19 ? 10000 : kSizes[rng.Uniform(0, 7)];
  const RowSchema schema = ParitySchema();
  std::vector<Mode> modes;
  std::vector<int64_t> domains;
  for (const FieldSpec& field : schema.fields()) {
    auto mode = static_cast<Mode>(rng.Uniform(0, static_cast<int64_t>(Mode::kCount) - 1));
    if (mode == Mode::kBigInt && field.type != ValueType::kInt &&
        field.type != ValueType::kDouble) {
      mode = Mode::kMixed;
    }
    modes.push_back(mode);
    domains.push_back(rng.Chance(0.5) ? rng.Uniform(2, 12) : rng.Uniform(64, 4000));
  }
  ParityCase c;
  c.rows.reserve(num_rows);
  for (size_t r = 0; r < num_rows; ++r) {
    Row row;
    for (size_t f = 0; f < schema.NumFields(); ++f) {
      row.push_back(MakeCell(schema.fields()[f].type, modes[f], rng, domains[f], r));
    }
    c.rows.push_back(std::move(row));
  }
  static const char* kNames[] = {"i", "d", "s", "b", "x"};
  switch (index % 5) {
    case 0: break;
    case 1: c.config.sorted_column = kNames[rng.Uniform(0, 4)]; break;
    case 2:
      c.config.inverted_columns = {kNames[rng.Uniform(0, 4)], "s"};
      break;
    case 3:
      c.config.star_tree_dimensions = {"s", "b"};
      c.config.star_tree_metrics = {"d", "i"};
      if (rng.Chance(0.5)) c.config.sorted_column = "i";
      break;
    case 4: c.config.bit_packed_forward_index = false; break;
  }
  return c;
}

/// Column-type coercion, as the segment builder applies it at ingest.
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

std::string Bytes(const Value& v) { return EncodeRow({v}); }

/// Frame + footprint + a grouped (star-tree eligible) and a filtered
/// (inverted/sorted eligible) query result, hashed together.
uint64_t Digest(int index, std::shared_ptr<Segment> segment,
                const std::vector<Row>& input) {
  SegmentFrame frame;
  frame.seq = index;
  frame.segment = segment;
  std::string acc = EncodeSegmentFrame(frame);
  // The footprint term keeps the star-tree charge the digests were recorded
  // with: per cell of levels 1..dims, a 4-byte id per dim plus a 48-byte map
  // node plus sum/min/max per metric. It is recomputed from the cube's cell
  // counts per level, so the digest still pins the cube's shape; the cube's
  // real array capacities (StarTreeMemoryBytes) replace that charge in
  // MemoryBytes and are checked by olap_star_tree_parity_test.
  int64_t footprint = segment->MemoryBytes() - segment->StarTreeMemoryBytes();
  const std::vector<size_t> cells = segment->StarTreeCellCounts();
  const int64_t kMetrics = 2;  // star_tree_metrics of MakeCase
  for (size_t k = 1; k < cells.size(); ++k) {
    footprint += static_cast<int64_t>(cells[k]) *
                 (static_cast<int64_t>(4 * k) + 48 + kMetrics * 3 * 8);
  }
  acc += std::to_string(footprint);

  OlapQuery grouped;
  grouped.group_by = {"s", "b"};
  grouped.aggregations = {OlapAggregation::Count("n"), OlapAggregation::Sum("d", "sd"),
                          OlapAggregation::Max("i", "mi")};
  OlapQuery filtered;
  filtered.select_columns = {"i", "d", "s", "b", "x"};
  filtered.filters = {FilterPredicate::Eq(
      "s", input.empty() ? Value("v1") : Coerce(ValueType::kString, input[0][2]))};
  for (const OlapQuery& query : {grouped, filtered}) {
    OlapQueryStats stats;
    Result<OlapResult> result = segment->Execute(query, nullptr, &stats);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok()) continue;
    acc += std::to_string(stats.star_tree_hits);
    for (const Row& row : result.value().rows) acc += EncodeRow(row);
  }
  return Fnv1a64(acc);
}

// Digests of the set-based builder (std::set<Value> insert + lower_bound per
// cell) over MakeCase(0..kCases-1).
const uint64_t kSetBuilderDigests[kCases] = {
    0xaa6c4ca2101f0bd9ULL, 0x15fc0459f9c63699ULL, 0x9049fd1ea0d8ae6bULL,
    0xfdb2d9d50c1e6206ULL, 0x00017eb6057a288fULL, 0xe8d07ccbf9fbb750ULL,
    0x9715fd280e49da17ULL, 0x8ad8ba59331dd6f7ULL, 0xdb99812d33be5b6cULL,
    0x4656c2ac70b47483ULL, 0x9fec82030f4e98fbULL, 0x8625bf0883aeb1acULL,
    0x8f10743f6a8fee17ULL, 0x44ab5cb86b3c39e4ULL, 0x2688dfb7f82a3bc3ULL,
    0x4af5d4e2ddd47c51ULL, 0xfe4287442e882bfdULL, 0x50750861993b3ae6ULL,
    0xe078fdf8892905c5ULL, 0xc9ea18124cbe2b74ULL, 0x15ed7d77160ed72cULL,
    0xf4d627bbb998af04ULL, 0xf141f60f493e90bfULL, 0x68ef4e47c2436887ULL,
    0x99adaac69c320552ULL, 0xff584546b2302b00ULL, 0xf7d2771d493d2951ULL,
    0x1b29ab419cde1d82ULL, 0x97e9995610bed709ULL, 0x834cc56018d4db50ULL,
    0xdf05b3b071ad978bULL, 0xe0221a50d55ba621ULL, 0xb43d44811389aab6ULL,
    0x2f734c9d474734e4ULL, 0x5a90002c3d43a187ULL, 0xd4564fadb0306f3cULL,
    0xc99989b21a1022a2ULL, 0xbe887def2baeffd5ULL, 0x5c7e08e229e8faa8ULL,
    0xb14334a890104388ULL, 0xc0fb3ad3889d2346ULL, 0x749b6539fd17adf6ULL,
    0x0472bc4a7a063deeULL, 0xd6c821a93f7ab45aULL, 0xda2324be9059ba40ULL,
    0xa71e945bf0069083ULL, 0x1292516f37eaa975ULL, 0xcbcacfebdf24a7ecULL,
    0x8d3a965ae11bc02cULL, 0xa9700f51a0c1e628ULL, 0x2a586c06c3d8301bULL,
    0xd7d379e93cf7ea5eULL, 0xcf40f5b956e92cf9ULL, 0xad1ba9ded2096ff3ULL,
    0x1d9e717ebf195941ULL, 0xdacb117dacc192a0ULL, 0x759e6da51786c583ULL,
    0x3897bf96e6208f42ULL, 0x750f67e97519ec6eULL, 0xbebc3c42e72c4fe6ULL,
    0xa1129f228e4d3629ULL, 0x266cbc00dc5f6c99ULL, 0x5eed4f85119c6669ULL,
    0x0bdacf0c582484c9ULL, 0x49cc5f6f1b34d311ULL, 0x53ef2b45dc572e83ULL,
    0x131174943a617211ULL, 0xe2d8f5d51eaa34c5ULL, 0xaa8d0c26b0dd593fULL,
    0xc2f94d2d0d7d0348ULL, 0xb8e4bddab2ed24bdULL, 0xb7c35bc54af64b8dULL,
    0xbeb8b30bccb45a50ULL, 0x31ae89eed68b12beULL, 0x42c1defb8b8f21ebULL,
    0x0f5678c5ee3eb1a2ULL, 0x1a11c4d7ca68db48ULL, 0x3483563139b12f62ULL,
    0x552dd4f8dab7ebb0ULL, 0xa4a17d76afcb364aULL, 0x55a54e233dd5183eULL,
    0xb634c6bfe2543aecULL, 0x74720512a400c200ULL, 0x234f690c391470e6ULL,
    0x40028e337dd36a88ULL, 0xf474ec1de78db36fULL, 0xf3a230f1e033c346ULL,
    0x2d5bfa2de4a3c51bULL, 0x82cbca7e6d0c8a02ULL, 0x24ee7e84e25b550aULL,
    0xf57ed726215b32c8ULL, 0x7eae8f11e5523289ULL, 0x0c2383cc6d1cdb7eULL,
    0xafbc8941d178d330ULL, 0xe768f0a938324dafULL, 0x90b752af0d89a7f0ULL,
    0xcf557a5de3b2ada5ULL, 0xcf34641ba914aea2ULL, 0xd8d41ec86bc68debULL,
    0xe3d289fae941f21eULL, 0xa9841da7b3fc512dULL, 0xb2b61e756752b4ffULL,
    0xb9f84b41b47ade5aULL, 0x63db955ea219e325ULL, 0x0dcd422e3fb1e0e3ULL,
    0x2b4152f2452876acULL, 0xd9881498dd4d83b1ULL, 0x8c5cde66e540dff4ULL,
    0x6c14afcafdf609c2ULL, 0x05bd0caec027da3fULL, 0x5f4ef75e1fa8af36ULL,
    0x52d1fd24ab0af9ebULL, 0xef4593994a79ebf9ULL, 0xc414be4437867423ULL,
    0x3d95ec22d9832df9ULL, 0x1dfc898f3253982dULL, 0x8895b6a6f83a787bULL,
    0xf2c5bfaef1edbb9fULL, 0xa24f7ca771627cc8ULL, 0x5ce774005613364aULL,
};

TEST(SegmentBuildParityTest, FramesMatchSetBasedBuilderDigests) {
  for (int i = 0; i < kCases; ++i) {
    ParityCase c = MakeCase(i);
    std::vector<Row> input = c.rows;
    Result<std::shared_ptr<Segment>> built =
        Segment::Build("parity_" + std::to_string(i), ParitySchema(), std::move(c.rows),
                       c.config);
    ASSERT_TRUE(built.ok()) << "case " << i << ": " << built.status().ToString();
    EXPECT_EQ(Digest(i, built.value(), input), kSetBuilderDigests[i]) << "case " << i;
  }
}

TEST(SegmentBuildParityTest, CellsAreTheSetOracleRepresentatives) {
  const RowSchema schema = ParitySchema();
  for (int i = 0; i < kCases; ++i) {
    SCOPED_TRACE("case " + std::to_string(i));
    ParityCase c = MakeCase(i);
    std::vector<Row> ordered = c.rows;
    Result<std::shared_ptr<Segment>> built =
        Segment::Build("oracle", schema, std::move(c.rows), c.config);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    const Segment& segment = *built.value();
    ASSERT_EQ(segment.NumRows(), static_cast<int64_t>(ordered.size()));
    if (!c.config.sorted_column.empty()) {
      size_t idx = static_cast<size_t>(schema.FieldIndex(c.config.sorted_column));
      std::stable_sort(ordered.begin(), ordered.end(),
                       [idx](const Row& a, const Row& b) { return a[idx] < b[idx]; });
    }
    for (size_t col = 0; col < schema.NumFields(); ++col) {
      ValueType type = schema.fields()[col].type;
      std::set<Value> dictionary;
      for (const Row& row : ordered) dictionary.insert(Coerce(type, row[col]));
      for (size_t r = 0; r < ordered.size(); ++r) {
        const Value& expected = *dictionary.find(Coerce(type, ordered[r][col]));
        Value actual = segment.GetValue(r, static_cast<int>(col));
        if (Bytes(actual) != Bytes(expected)) {
          FAIL() << "column " << col << " row " << r << ": got " << actual.ToString()
                 << " (type " << ValueTypeName(actual.type()) << "), want "
                 << expected.ToString() << " (type " << ValueTypeName(expected.type())
                 << ")";
        }
      }
    }
  }
}

TEST(SegmentBuildParityTest, FailedBuildLeavesRowsIntact) {
  std::vector<Row> rows = {
      {Value(int64_t{1}), Value(2.0), Value("a"), Value(true), Value::Null()},
      {Value(int64_t{3}), Value("short row")},
  };
  const std::vector<Row> before = rows;
  Result<std::shared_ptr<Segment>> built =
      Segment::Build("bad", ParitySchema(), std::move(rows), {});
  EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(rows, before);

  SegmentIndexConfig bad_sort;
  bad_sort.sorted_column = "missing";
  rows.pop_back();
  const std::vector<Row> one = rows;
  built = Segment::Build("bad", ParitySchema(), std::move(rows), bad_sort);
  EXPECT_FALSE(built.ok());
  EXPECT_EQ(rows, one);
}

}  // namespace
}  // namespace uberrt::olap
