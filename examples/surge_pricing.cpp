// Surge pricing (paper Section 5.1): the analytical-application category.
// A programmatic Flink pipeline computes demand/supply per hexagon geofence
// per minute and a pricing function publishes multipliers to a key-value
// store — tuned for freshness and availability over consistency.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/platform.h"
#include "core/use_cases.h"
#include "workload/generators.h"

using namespace uberrt;

int main() {
  core::RealtimePlatform platform;
  core::SurgePricingApp surge(&platform);

  // A rush hour of trips: hot geofences get far more demand than others.
  // It is on the topic (provisioned exactly as Start() would) before the
  // job starts, so the source sees every partition's backlog at once: a
  // partition still empty when a job polls counts as idle, and its first
  // events would arrive behind the watermark.
  if (!platform
           .ProvisionTopic(surge.options().trips_topic,
                           workload::TripEventGenerator::Schema(),
                           surge.options().partitions, core::SurgePricingApp::kActor,
                           /*lossless=*/false)
           .ok()) {
    return 1;
  }
  workload::TripEventGenerator::Options options;
  options.num_hexes = 40;
  options.hex_skew = 1.2;
  workload::TripEventGenerator trips(options);
  trips.Produce(platform.streams(), surge.options().trips_topic, 5'000).ok();
  if (!surge.Start().ok()) return 1;

  compute::JobRunner* runner = platform.jobs()->GetRunner(surge.job_id());
  runner->WaitUntilCaughtUp(60'000).ok();
  runner->RequestFinish();
  runner->AwaitTermination(60'000).ok();

  std::printf("surge windows computed: %lld\n",
              static_cast<long long>(surge.windows_computed()));
  std::vector<std::pair<std::string, double>> multipliers;
  for (const auto& [hex, m] : surge.Multipliers()) multipliers.emplace_back(hex, m);
  std::sort(multipliers.begin(), multipliers.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  std::printf("\nhottest geofences (instant KV lookups for the pricing path):\n");
  std::printf("%-10s %10s\n", "geofence", "multiplier");
  for (size_t i = 0; i < std::min<size_t>(8, multipliers.size()); ++i) {
    std::printf("%-10s %9.2fx\n", multipliers[i].first.c_str(),
                multipliers[i].second);
  }
  std::printf("\nGetMultiplier(\"%s\") = %.2fx, GetMultiplier(\"hex-cold\") = %.2fx\n",
              multipliers[0].first.c_str(),
              surge.GetMultiplier(multipliers[0].first),
              surge.GetMultiplier("hex-cold"));
  return 0;
}
