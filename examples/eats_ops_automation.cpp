// UberEats Ops automation (paper Section 5.4): the ad-hoc exploration
// category. Ops explore real-time order data with PrestoSQL on Pinot, then
// productionize the discovered insight as a rule that fires alerts — the
// Covid-era restaurant-capacity workflow.

#include <cstdio>

#include "core/platform.h"
#include "core/use_cases.h"
#include "workload/generators.h"

using namespace uberrt;

int main() {
  core::RealtimePlatform platform;
  // The rollup table is shared infrastructure, provisioned by the
  // restaurant-manager pipeline.
  core::RestaurantManagerApp pipeline(&platform);
  // The orders are on the topic (provisioned exactly as Start() would)
  // before the rollup job starts, so no partition counts as idle while its
  // first batch is still in flight (see surge_pricing).
  if (!platform
           .ProvisionTopic(pipeline.options().orders_topic,
                           workload::EatsOrderGenerator::Schema(),
                           pipeline.options().partitions,
                           core::RestaurantManagerApp::kActor)
           .ok()) {
    return 1;
  }
  workload::EatsOrderGenerator orders({});
  orders.Produce(platform.streams(), pipeline.options().orders_topic, 3'000).ok();
  if (!pipeline.Start().ok()) return 1;
  core::EatsOpsAutomationApp ops(&platform);
  for (const compute::JobInfo& info : platform.jobs()->ListJobs()) {
    compute::JobRunner* runner = platform.jobs()->GetRunner(info.id);
    runner->WaitUntilCaughtUp(60'000).ok();
    runner->RequestFinish();
    runner->AwaitTermination(60'000).ok();
  }
  platform.PumpUntilIngested().ok();

  // Phase 1: ad-hoc exploration. Which restaurants are busiest right now?
  Result<sql::QueryResult> exploration = ops.Explore(
      "SELECT restaurant_id, SUM(orders) AS active FROM eats_rollup "
      "GROUP BY restaurant_id ORDER BY active DESC LIMIT 5");
  if (!exploration.ok()) return 1;
  std::printf("ad-hoc exploration — busiest restaurants:\n");
  std::printf("%-14s %8s\n", "restaurant", "orders");
  for (const Row& row : exploration.value().rows) {
    std::printf("%-14s %8.0f\n", row[0].ToString().c_str(), row[1].ToNumeric());
  }
  double busiest = exploration.value().rows[0][1].ToNumeric();

  // Phase 2: productionize. The insight becomes standing rules evaluated by
  // the automation framework.
  ops.AddRule({"restaurant_over_capacity",
               "SELECT SUM(orders) AS active FROM eats_rollup WHERE "
               "restaurant_id = " + exploration.value().rows[0][0].ToString(),
               busiest * 0.5, /*alert_when_greater=*/true}).ok();
  ops.AddRule({"city_demand_collapse",
               "SELECT SUM(orders) FROM eats_rollup", 1e9,
               /*alert_when_greater=*/true}).ok();  // should NOT fire
  Result<std::vector<core::EatsOpsAutomationApp::Alert>> alerts = ops.EvaluateRules();
  if (!alerts.ok()) return 1;
  std::printf("\nrule evaluation -> %zu alert(s):\n", alerts.value().size());
  for (const auto& alert : alerts.value()) {
    std::printf("  %s\n", alert.ToString().c_str());
  }
  std::printf("\n(alerts would notify couriers/restaurants to limit capacity)\n");
  return 0;
}
