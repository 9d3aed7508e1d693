// F5 — Figure 5 / Section 4.2.2: the unified Flink platform. The platform
// layer turns business logic (SQL or API) into standard job definitions;
// the job management layer owns validation, deployment, monitoring and
// failure recovery; the infrastructure layer provides compute + storage.
//
// Walks a job through its full lifecycle including an injected crash and an
// auto-scaling event, printing what each layer did.

#include "bench_util.h"
#include "core/platform.h"
#include "workload/generators.h"

namespace uberrt {

int Main() {
  bench::Header("F5", "unified Flink architecture: lifecycle walkthrough",
                "platform layer -> job management layer -> infrastructure "
                "layer (Figure 5)");
  core::RealtimePlatform platform;
  RowSchema schema = workload::TripEventGenerator::Schema();
  platform.ProvisionTopic("trips", schema, 4, "fig5").ok();

  std::printf("[platform layer] compile business logic:\n");
  Result<std::string> sql_job = platform.SubmitSqlJob(
      "SELECT hex, window_start, COUNT(*) AS trips FROM trips "
      "GROUP BY hex, TUMBLE(ts, INTERVAL '1' MINUTE)",
      "trips_rollup", "fig5");
  std::printf("  FlinkSQL -> job '%s' (validated + deployed)\n",
              sql_job.value().c_str());
  Status invalid = platform.SubmitSqlJob("SELECT COUNT(*) FROM trips", "x", "fig5")
                       .status();
  std::printf("  invalid SQL rejected at validation: %s\n",
              invalid.ToString().c_str());

  std::printf("[job management layer] monitor + auto-recover:\n");
  workload::TripEventGenerator generator({});
  generator.Produce(platform.streams(), "trips", 2'000).ok();
  compute::JobRunner* runner = platform.jobs()->GetRunner(sql_job.value());
  runner->WaitUntilCaughtUp(60'000).ok();
  platform.jobs()->Tick().ok();  // periodic checkpoint
  common::FaultRule crash;
  crash.error_probability = 1.0;
  crash.max_triggers = 1;  // one-shot
  platform.faults()->SetRule("job.crash." + sql_job.value(), crash);
  std::printf("  crash scheduled on the fault plane; next tick fires it\n");
  platform.jobs()->Tick().ok();  // crashes, detects + restarts from checkpoint
  compute::JobInfo info = platform.jobs()->GetJob(sql_job.value()).value();
  std::printf("  after monitoring tick: state=%s restarts=%lld (restored from "
              "checkpoint)\n",
              compute::JobStateName(info.state), static_cast<long long>(info.restarts));

  std::printf("[job management layer] lag-driven auto-scaling:\n");
  // A deliberately slow pipeline so a backlog accumulates deterministically.
  compute::JobGraph slow("slow_enrich");
  compute::SourceSpec slow_source;
  slow_source.topic = "trips";
  slow_source.schema = schema;
  slow_source.time_field = "ts";
  slow.AddSource(slow_source)
      .Map("expensive_enrichment",
           [](const Row& r) {
             volatile double sink = 0;
             for (int i = 0; i < 20'000; ++i) sink = sink + i * 1e-9;
             (void)sink;
             return r;
           },
           schema)
      .SinkToCollector([](const Row&, TimestampMs) {});
  Result<std::string> slow_job = platform.SubmitJob(slow, "fig5");
  generator.Produce(platform.streams(), "trips", 80'000).ok();
  platform.jobs()->Tick().ok();  // sees the backlog, scales up
  compute::JobInfo slow_info = platform.jobs()->GetJob(slow_job.value()).value();
  std::printf("  backlog 80k on slow job -> rescales=%lld parallelism=%d\n",
              static_cast<long long>(slow_info.rescales), slow_info.parallelism);
  platform.jobs()->CancelJob(slow_job.value()).ok();

  std::printf("[infrastructure layer] compute + storage backends:\n");
  runner = platform.jobs()->GetRunner(sql_job.value());
  runner->WaitUntilCaughtUp(120'000).ok();
  platform.jobs()->Tick().ok();
  std::printf("  checkpoints persisted to object store: %zu objects\n",
              platform.store()->List("checkpoints/").size());

  std::printf("[lifecycle] list -> cancel:\n");
  for (const compute::JobInfo& job : platform.jobs()->ListJobs()) {
    std::printf("  job=%s state=%s in=%lld out=%lld lag=%lld\n", job.id.c_str(),
                compute::JobStateName(job.state),
                static_cast<long long>(job.records_in),
                static_cast<long long>(job.records_out),
                static_cast<long long>(job.lag));
  }
  platform.jobs()->CancelJob(sql_job.value()).ok();
  std::printf("  cancelled: state=%s\n",
              compute::JobStateName(
                  platform.jobs()->GetJob(sql_job.value()).value().state));
  return 0;
}

}  // namespace uberrt

int main() { return uberrt::Main(); }
