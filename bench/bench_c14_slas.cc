// C14 — Section 2 requirements: "Most of the use cases require seconds
// level freshness" and "p99th query latency ... under 1 second" (the
// UberEats Restaurant Manager issuing several queries per page load).
//
// Measures (a) end-to-end freshness — produce time to queryable-in-OLAP
// time — through the full platform pipeline, and (b) the dashboard query
// latency distribution over many restaurant page loads.

#include "bench_util.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "core/platform.h"
#include "core/use_cases.h"
#include "workload/generators.h"

namespace uberrt {

int Main() {
  bench::Header("C14", "freshness and query-latency SLAs on the dashboard path",
                "seconds-level freshness; p99 query latency < 1 second");
  core::RealtimePlatform platform;
  core::RestaurantManagerApp app(&platform);
  if (!app.Start().ok()) return 1;

  // Freshness: batches of orders produced, then pumped through FlinkSQL
  // rollup -> Pinot ingestion; freshness = wall time until the new rows are
  // visible to a query.
  Histogram freshness_ms;
  // Each 200-order batch spans >1 minute of event time so the rollup's
  // 1-minute tumbling windows keep closing as data flows (no open-window
  // stalls distorting the measurement).
  workload::EatsOrderGenerator::Options gen_options;
  gen_options.time_step_ms = 500;
  workload::EatsOrderGenerator generator(gen_options);
  compute::JobRunner* runner = nullptr;
  for (const compute::JobInfo& info : platform.jobs()->ListJobs()) {
    runner = platform.jobs()->GetRunner(info.id);
  }
  olap::OlapQuery count_query;
  count_query.aggregations = {olap::OlapAggregation::Sum("orders", "n")};
  double visible = 0;
  // A batch still invisible after the 5 s wait cap is a timeout: counted,
  // never recorded as a freshness sample (the cap would pose as a latency).
  int64_t freshness_timeouts = 0;
  for (int batch = 0; batch < 20; ++batch) {
    TimestampMs start = SystemClock::Instance()->NowMs();
    generator.Produce(platform.streams(), "eats_orders", 200).ok();
    // The rollup job holds a window open until event time passes it; advance
    // event time by producing, then wait for the pipeline + ingestion.
    bool became_visible = false;
    while (true) {
      platform.PumpOnce().ok();
      Result<olap::OlapResult> result =
          platform.olap()->Query("eats_rollup", count_query);
      if (result.ok() && !result.value().rows.empty()) {
        double now_visible = result.value().rows[0][0].ToNumeric();
        if (now_visible > visible) {
          visible = now_visible;
          became_visible = true;
          break;
        }
      }
      if (SystemClock::Instance()->NowMs() - start > 5'000) break;
      SystemClock::Instance()->SleepMs(1);
    }
    if (became_visible) {
      freshness_ms.Record(SystemClock::Instance()->NowMs() - start);
    } else {
      ++freshness_timeouts;
    }
  }
  if (runner != nullptr) {
    runner->WaitUntilCaughtUp(30'000).ok();
  }
  platform.PumpUntilIngested().ok();
  platform.olap()->ForceSeal("eats_rollup").ok();

  std::printf("freshness (produce -> queryable), %zu batches, %lld timed out:\n",
              freshness_ms.Count(), static_cast<long long>(freshness_timeouts));
  std::printf("  p50=%lld ms  p99=%lld ms  max=%lld ms   (paper: seconds-level)\n",
              static_cast<long long>(freshness_ms.Percentile(50)),
              static_cast<long long>(freshness_ms.Percentile(99)),
              static_cast<long long>(freshness_ms.Max()));

  // Dashboard query latency: each "page load" issues the Section 5.2 query
  // mix (top items + sales time series) for a random restaurant.
  Histogram query_us;
  Rng rng(31);
  for (int page = 0; page < 150; ++page) {
    int64_t restaurant = rng.Zipf(200, 1.1);
    query_us.Record(bench::TimeUs([&] { app.TopItems(restaurant).ok(); }));
    query_us.Record(bench::TimeUs([&] { app.SalesTimeseries(restaurant).ok(); }));
  }
  std::printf("dashboard query latency, %zu queries:\n", query_us.Count());
  std::printf("  p50=%.2f ms  p99=%.2f ms  max=%.2f ms   (paper: p99 < 1000 ms)\n",
              query_us.Percentile(50) / 1000.0, query_us.Percentile(99) / 1000.0,
              query_us.Max() / 1000.0);

  bench::JsonReport report("C14",
                           "seconds-level freshness; p99 query latency < 1 second");
  report.Metric("freshness_p50_ms", static_cast<double>(freshness_ms.Percentile(50)));
  report.Metric("freshness_p99_ms", static_cast<double>(freshness_ms.Percentile(99)));
  report.Metric("freshness_max_ms", static_cast<double>(freshness_ms.Max()));
  report.Metric("freshness_timeouts", static_cast<double>(freshness_timeouts));
  report.Metric("query_p50_ms", query_us.Percentile(50) / 1000.0);
  report.Metric("query_p99_ms", query_us.Percentile(99) / 1000.0);
  report.Metric("query_sla_ms", 1000);
  // Headroom under the paper's SLA: >1 means the p99 beats the claim.
  double p99_ms = query_us.Percentile(99) / 1000.0;
  report.Metric("ratio", p99_ms > 0 ? 1000.0 / p99_ms : 0.0);
  report.Write();
  return 0;
}

}  // namespace uberrt

int main() { return uberrt::Main(); }
