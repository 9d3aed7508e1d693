// Measurement pieces of the Figure 1 benchmark that do not touch the
// platform: percentiles, the count-based freshness matchers, the rollup
// reference aggregator and the in-memory span recorder. Kept header-only
// and free of platform types so harness_selftest.cc can check each on small
// hand-built inputs.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- Percentiles -------------------------------------------------------------

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample with
/// at least p% of the samples at or below it. NaN when empty.
inline double PercentileSorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return std::nan("");
  double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

/// The highest of the usual reporting percentiles that still has at least
/// `beyond` samples above it in a set of `n`; 0 when even the median has not.
inline double HighestSupportedPercentile(size_t n, size_t beyond = 10) {
  static const double kLadder[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
  for (double p : kLadder) {
    double above = static_cast<double>(n) * (1.0 - p / 100.0);
    if (above + 1e-9 >= static_cast<double>(beyond)) return p;
  }
  return 0;
}

/// Median, p99 and the supported-percentile note of one timing.
struct Summary {
  size_t n = 0;
  double p50 = std::nan("");
  double p99 = std::nan("");
  double supported = 0;  ///< HighestSupportedPercentile(n)
  bool p99_supported() const { return supported >= 99.0; }
};

inline Summary Summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  s.supported = HighestSupportedPercentile(s.n);
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = PercentileSorted(samples, 50);
  s.p99 = PercentileSorted(samples, 99);
  return s;
}

// --- Count-based freshness matching -----------------------------------------

/// Items that become visible in order, observed only through a running
/// total (rows in a topic, rows a COUNT(*) sees). Item i carries the total
/// at which it counts as arrived (non-decreasing); Advance(total, now)
/// stamps every not-yet-matched item whose threshold <= total with `now`.
/// When the pipeline reorders items slightly, samples are attributed to the
/// earliest items, so the multiset of arrival times is exact and each is
/// paired with a due time from the same in-flight window.
class PrefixMatcher {
 public:
  void Add(int64_t due_ns, int64_t threshold) {
    due_.push_back(due_ns);
    threshold_.push_back(threshold);
    matched_ns_.push_back(-1);
  }
  void Advance(int64_t total, int64_t now_ns) {
    while (next_ < due_.size() && threshold_[next_] <= total) {
      matched_ns_[next_++] = now_ns;
    }
  }
  size_t size() const { return due_.size(); }
  size_t matched() const { return next_; }
  /// Index of the first unmatched item (== size() when all matched).
  size_t next() const { return next_; }
  int64_t matched_ns(size_t i) const { return matched_ns_[i]; }
  /// Arrival minus due time of items [begin, end) that matched, in ms.
  std::vector<double> LatenciesMs(size_t begin, size_t end) const {
    std::vector<double> out;
    for (size_t i = begin; i < end && i < due_.size(); ++i) {
      if (matched_ns_[i] >= 0) out.push_back((matched_ns_[i] - due_[i]) / 1e6);
    }
    return out;
  }

 private:
  std::vector<int64_t> due_;
  std::vector<int64_t> threshold_;
  std::vector<int64_t> matched_ns_;
  size_t next_ = 0;
};

/// Items identified by a key (a window start) that become visible as a group
/// of `expected` rows. Observe(key, count, now) matches the item once a
/// query sees at least `expected` rows for it.
class KeyedMatcher {
 public:
  struct Item {
    int64_t due_ns = 0;
    int64_t expected = 0;
    int64_t matched_ns = -1;
  };
  void Add(int64_t key, int64_t due_ns, int64_t expected) {
    items_[key] = Item{due_ns, expected, -1};
    order_.push_back(key);
  }
  void Observe(int64_t key, int64_t count, int64_t now_ns) {
    auto it = items_.find(key);
    if (it == items_.end()) return;
    if (it->second.matched_ns < 0 && count >= it->second.expected) {
      it->second.matched_ns = now_ns;
      ++matched_;
    }
  }
  /// Smallest key not yet matched; INT64_MAX when none pending.
  int64_t MinUnmatchedKey() const {
    for (size_t i = min_scan_; i < order_.size(); ++i) {
      if (items_.at(order_[i]).matched_ns < 0) {
        min_scan_ = i;
        return order_[i];
      }
    }
    min_scan_ = order_.size();
    return std::numeric_limits<int64_t>::max();
  }
  size_t size() const { return order_.size(); }
  size_t matched() const { return matched_; }
  const Item& item_at(size_t i) const { return items_.at(order_[i]); }
  int64_t key_at(size_t i) const { return order_[i]; }
  std::vector<double> LatenciesMs(size_t begin, size_t end) const {
    std::vector<double> out;
    for (size_t i = begin; i < end && i < order_.size(); ++i) {
      const Item& item = items_.at(order_[i]);
      if (item.matched_ns >= 0) out.push_back((item.matched_ns - item.due_ns) / 1e6);
    }
    return out;
  }

 private:
  std::map<int64_t, Item> items_;
  std::vector<int64_t> order_;  ///< keys in insertion (closing) order
  mutable size_t min_scan_ = 0;
  size_t matched_ = 0;
};

// --- Rollup reference ----------------------------------------------------------

/// COUNT and SUM of one (key, window).
struct WindowAgg {
  int64_t count = 0;
  double sum = 0;
};

/// Reference model of a keyed tumbling-window COUNT/SUM job with the
/// compute layer's watermark rule: each partition tracks its max event time,
/// the watermark is the min over partitions that have seen data minus the
/// allowed out-of-orderness, and a window [s, s+size) closes once the
/// watermark reaches s+size. Events for an already-closed window are late
/// and dropped, as the job drops them with zero allowed lateness.
class RollupReference {
 public:
  RollupReference(int64_t window_ms, int64_t out_of_orderness_ms, int32_t partitions)
      : window_ms_(window_ms),
        ooo_ms_(out_of_orderness_ms),
        partition_max_(static_cast<size_t>(partitions), kNone) {}

  static int64_t WindowStart(int64_t ts, int64_t size) {
    return ts - ((ts % size) + size) % size;
  }

  /// Adds one event; appends to `closed` the starts of windows this event
  /// closed, in ascending order. An event with `aggregate` false (filtered
  /// out by the job's WHERE) still advances its partition's event time, as
  /// the source computes watermarks before any filter runs.
  void Add(const std::string& key, int32_t partition, int64_t ts, double value,
           bool aggregate, std::vector<int64_t>* closed) {
    int64_t start = WindowStart(ts, window_ms_);
    if (aggregate && start + window_ms_ > watermark_) {
      WindowAgg& agg = open_[start][key];
      ++agg.count;
      agg.sum += value;
    }
    int64_t& pmax = partition_max_[static_cast<size_t>(partition)];
    pmax = std::max(pmax, ts);
    int64_t min_max = kNone;
    for (int64_t m : partition_max_) {
      if (m == kNone) continue;
      min_max = min_max == kNone ? m : std::min(min_max, m);
    }
    if (min_max == kNone) return;
    int64_t wm = min_max - ooo_ms_;
    if (wm <= watermark_) return;
    watermark_ = wm;
    while (!open_.empty() && open_.begin()->first + window_ms_ <= watermark_) {
      auto node = open_.extract(open_.begin());
      if (closed != nullptr) closed->push_back(node.key());
      closed_.insert(std::move(node));
    }
  }

  int64_t watermark() const { return watermark_; }
  /// Closed windows: start -> key -> aggregate.
  const std::map<int64_t, std::map<std::string, WindowAgg>>& closed() const {
    return closed_;
  }

 private:
  static constexpr int64_t kNone = std::numeric_limits<int64_t>::min();
  int64_t window_ms_;
  int64_t ooo_ms_;
  std::vector<int64_t> partition_max_;
  int64_t watermark_ = kNone;
  std::map<int64_t, std::map<std::string, WindowAgg>> open_;
  std::map<int64_t, std::map<std::string, WindowAgg>> closed_;
};

/// Relative comparison for sums accumulated in different orders.
inline bool NearlyEqual(double a, double b, double rel = 1e-9) {
  return std::fabs(a - b) <= rel * std::max({1.0, std::fabs(a), std::fabs(b)});
}

// --- Spans ---------------------------------------------------------------------

/// Span names, in the order they are written out.
enum SpanName : uint8_t {
  kGenProduce,
  kGenFlush,
  kPump,
  kPumpIngest,
  kPumpDrain,
  kPumpTick,
  kPage,
  kSqlQuery,
  kOlapQuery,
  kProbeQuery,
  kNumSpanNames,
};

inline const char* SpanNameString(SpanName n) {
  static const char* kNames[] = {"gen.produce", "gen.flush",  "pump",
                                 "pump.ingest", "pump.drain", "pump.tick",
                                 "page",        "sql.query",  "olap.query",
                                 "probe.query"};
  return kNames[n];
}

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t trace_id = 0;  ///< shared by the spans of one page load / sampled event
  int32_t parent = -1;   ///< index into the same recorder, -1 for a root
  SpanName name = kGenProduce;
};

/// Per-thread in-memory span log. Every span feeds the per-name totals;
/// `keep` decides whether the span itself is stored for the trace file
/// (high-rate spans are stored only for sampled events).
class SpanRecorder {
 public:
  int32_t Begin(SpanName name, int64_t trace_id, int32_t parent, int64_t start_ns) {
    spans_.push_back(Span{start_ns, 0, trace_id, parent, name});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void End(int32_t idx, int64_t end_ns) {
    Span& s = spans_[static_cast<size_t>(idx)];
    s.end_ns = end_ns;
    Account(s.name, end_ns - s.start_ns, s.parent);
  }
  void SetTraceId(int32_t idx, int64_t trace_id) {
    spans_[static_cast<size_t>(idx)].trace_id = trace_id;
  }
  /// Accounts a span without storing it.
  void Count(SpanName name, int64_t duration_ns) { Account(name, duration_ns, -1); }

  const std::vector<Span>& spans() const { return spans_; }
  int64_t total_ns(SpanName n) const { return total_ns_[n]; }
  int64_t count(SpanName n) const { return count_[n]; }
  /// Total duration of `n` spans minus the parts covered by their children.
  int64_t self_ns(SpanName n) const { return total_ns_[n] - child_ns_[n]; }
  const std::vector<double>& durations_ms(SpanName n) const { return durations_ms_[n]; }

  void Merge(const SpanRecorder& other) {
    for (int i = 0; i < kNumSpanNames; ++i) {
      total_ns_[i] += other.total_ns_[i];
      child_ns_[i] += other.child_ns_[i];
      count_[i] += other.count_[i];
      durations_ms_[i].insert(durations_ms_[i].end(), other.durations_ms_[i].begin(),
                              other.durations_ms_[i].end());
    }
  }

 private:
  void Account(SpanName name, int64_t duration_ns, int32_t parent) {
    total_ns_[name] += duration_ns;
    ++count_[name];
    if (name != kGenProduce) durations_ms_[name].push_back(duration_ns / 1e6);
    if (parent >= 0) child_ns_[spans_[static_cast<size_t>(parent)].name] += duration_ns;
  }

  std::vector<Span> spans_;
  int64_t total_ns_[kNumSpanNames] = {};
  int64_t child_ns_[kNumSpanNames] = {};
  int64_t count_[kNumSpanNames] = {};
  std::vector<double> durations_ms_[kNumSpanNames];
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
