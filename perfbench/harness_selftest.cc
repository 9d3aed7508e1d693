// Self-tests of the benchmark harness on small hand-built inputs: the
// percentile routine, the count-based freshness matchers and the rollup
// reference aggregator. Exit code 0 when every check holds.

#include <cstdio>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::printf("FAIL line %d: %s\n", line, what);
    ++failures;
  }
}
#define EXPECT(cond) Expect((cond), #cond, __LINE__)

void TestPercentiles() {
  std::vector<double> v = {5, 1, 4, 2, 3};
  Summary s = Summarize(v);
  EXPECT(s.n == 5);
  EXPECT(s.p50 == 3);
  EXPECT(s.p99 == 5);
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  Summary h = Summarize(hundred);
  EXPECT(h.p50 == 50);  // nearest rank: ceil(0.5 * 100) = 50th sample
  EXPECT(h.p99 == 99);
  std::vector<double> sorted = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT(PercentileSorted(sorted, 90) == 9);
  EXPECT(PercentileSorted(sorted, 91) == 10);
  EXPECT(PercentileSorted(sorted, 0) == 1);
  EXPECT(std::isnan(Summarize({}).p50));
  // At least ten samples beyond the reported percentile.
  EXPECT(HighestSupportedPercentile(10000) == 99.9);
  EXPECT(HighestSupportedPercentile(1000) == 99.0);
  EXPECT(HighestSupportedPercentile(999) == 95.0);
  EXPECT(HighestSupportedPercentile(200) == 95.0);
  EXPECT(HighestSupportedPercentile(100) == 90.0);
  EXPECT(HighestSupportedPercentile(20) == 50.0);
  EXPECT(HighestSupportedPercentile(19) == 0);
  EXPECT(!Summarize(std::vector<double>(999, 1.0)).p99_supported());
  EXPECT(Summarize(std::vector<double>(1000, 1.0)).p99_supported());
}

void TestPrefixMatcher() {
  PrefixMatcher m;
  // Three items due at 0, 10, 20 ms arriving as the running total passes 1..3.
  m.Add(0, 1);
  m.Add(10 * 1000000LL, 2);
  m.Add(20 * 1000000LL, 3);
  m.Advance(0, 5 * 1000000LL);
  EXPECT(m.matched() == 0);
  m.Advance(2, 25 * 1000000LL);
  EXPECT(m.matched() == 2);
  EXPECT(m.next() == 2);
  m.Advance(2, 40 * 1000000LL);  // no progress: stamps stay
  EXPECT(m.matched_ns(1) == 25 * 1000000LL);
  std::vector<double> lat = m.LatenciesMs(0, 3);  // third unmatched: skipped
  EXPECT(lat.size() == 2 && lat[0] == 25 && lat[1] == 15);
  m.Advance(10, 50 * 1000000LL);  // overshoot matches the rest once
  EXPECT(m.matched() == 3);
  EXPECT(m.LatenciesMs(2, 3)[0] == 30);
  // Weighted thresholds: windows of 3 and 2 rows in a sink topic.
  PrefixMatcher w;
  w.Add(0, 3);
  w.Add(0, 5);
  w.Advance(4, 1000000LL);
  EXPECT(w.matched() == 1);
  w.Advance(5, 2000000LL);
  EXPECT(w.matched() == 2 && w.matched_ns(1) == 2000000LL);
}

void TestKeyedMatcher() {
  KeyedMatcher m;
  m.Add(60000, 0, 3);
  m.Add(120000, 1000000LL, 2);
  EXPECT(m.MinUnmatchedKey() == 60000);
  m.Observe(60000, 2, 5000000LL);  // partial window: not yet visible
  EXPECT(m.matched() == 0);
  m.Observe(120000, 2, 6000000LL);  // later window complete first
  EXPECT(m.matched() == 1);
  EXPECT(m.MinUnmatchedKey() == 60000);
  m.Observe(999, 5, 6000000LL);  // unknown key ignored
  m.Observe(60000, 3, 9000000LL);
  EXPECT(m.matched() == 2);
  EXPECT(m.MinUnmatchedKey() == std::numeric_limits<int64_t>::max());
  std::vector<double> lat = m.LatenciesMs(0, 2);
  EXPECT(lat.size() == 2 && lat[0] == 9 && lat[1] == 5);
  m.Observe(60000, 4, 20000000LL);  // already matched: stamp unchanged
  EXPECT(m.item_at(0).matched_ns == 9000000LL);
}

void TestRollupReference() {
  // 1 s windows, 100 ms out-of-orderness, two partitions.
  RollupReference ref(1000, 100, 2);
  std::vector<int64_t> closed;
  ref.Add("a", 0, 100, 1.0, true, &closed);
  ref.Add("b", 1, 200, 2.0, true, &closed);
  ref.Add("a", 0, 900, 3.0, true, &closed);
  EXPECT(closed.empty());
  // Partition 0 passes 1100 but partition 1 still holds the watermark at 100.
  ref.Add("a", 0, 1200, 4.0, true, &closed);
  EXPECT(closed.empty());
  EXPECT(ref.watermark() == 100);
  // A filtered-out event still advances partition 1's time: wm = 1150-100.
  ref.Add("b", 1, 1150, 99.0, false, &closed);
  EXPECT(closed.size() == 1 && closed[0] == 0);
  EXPECT(ref.watermark() == 1050);
  const auto& w0 = ref.closed().at(0);
  EXPECT(w0.size() == 2);
  EXPECT(w0.at("a").count == 2 && w0.at("a").sum == 4.0);
  EXPECT(w0.at("b").count == 1 && w0.at("b").sum == 2.0);
  // Late event for the closed window is dropped, not re-opened.
  ref.Add("c", 0, 500, 7.0, true, &closed);
  EXPECT(ref.closed().at(0).count("c") == 0);
  // Jumping far ahead closes every window in between that had data.
  closed.clear();
  ref.Add("a", 0, 5000, 1.0, true, &closed);
  EXPECT(closed.empty());  // partition 1 still at 1150
  ref.Add("b", 1, 5200, 1.0, true, &closed);
  EXPECT(closed.size() == 1 && closed[0] == 1000);
  EXPECT(ref.watermark() == 4900);
  // Window [1000, 2000) holds a:4.0 only: the filtered b event is not summed.
  const auto& w1 = ref.closed().at(1000);
  EXPECT(w1.size() == 1 && w1.at("a").count == 1 && w1.at("a").sum == 4.0);
  EXPECT(RollupReference::WindowStart(-1, 1000) == -1000);
  EXPECT(NearlyEqual(0.1 + 0.2, 0.3));
  EXPECT(!NearlyEqual(1.0, 1.001));
}

void TestSpanRecorder() {
  SpanRecorder r;
  int32_t root = r.Begin(kPump, 7, -1, 0);
  int32_t a = r.Begin(kPumpIngest, 7, root, 10);
  r.End(a, 40);
  int32_t b = r.Begin(kPumpTick, 7, root, 50);
  r.End(b, 90);
  r.End(root, 100);
  r.Count(kGenProduce, 5);
  EXPECT(r.total_ns(kPump) == 100);
  EXPECT(r.self_ns(kPump) == 30);  // 100 - (30 + 40)
  EXPECT(r.self_ns(kPumpIngest) == 30);
  EXPECT(r.count(kGenProduce) == 1 && r.spans().size() == 3);
  EXPECT(r.spans()[1].trace_id == 7 && r.spans()[1].parent == root);
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestPercentiles();
  perfbench::TestPrefixMatcher();
  perfbench::TestKeyedMatcher();
  perfbench::TestRollupReference();
  perfbench::TestSpanRecorder();
  if (perfbench::failures == 0) std::printf("harness self-test: all checks passed\n");
  return perfbench::failures == 0 ? 0 : 1;
}
