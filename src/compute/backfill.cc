#include "compute/backfill.h"

#include "common/clock.h"
#include "stream/producer.h"

namespace uberrt::compute {

Result<BackfillReport> KappaPlusBackfill::Run(const JobGraph& graph,
                                              const storage::ArchiveTable& table,
                                              const std::vector<std::string>& partitions,
                                              BackfillOptions options) {
  if (graph.sources().size() != 1) {
    return Status::InvalidArgument("backfill supports single-source jobs");
  }
  TimestampMs start_ms = SystemClock::Instance()->NowMs();

  // Transient replay topic standing in for the original Kafka source.
  const std::string replay_topic =
      graph.name() + "__backfill_" + std::to_string(next_replay_id_++);
  stream::TopicConfig config;
  config.num_partitions = options.replay_partitions;
  UBERRT_RETURN_IF_ERROR(bus_->CreateTopic(replay_topic, config));

  // Same logic, minor config changes: source topic + reorder slack.
  SourceSpec source = graph.sources()[0];
  source.topic = replay_topic;
  source.out_of_orderness_ms =
      std::max(source.out_of_orderness_ms, options.reorder_slack_ms);
  JobGraph backfill_graph =
      graph.WithSource(0, std::move(source)).WithName(graph.name() + "_backfill");

  JobRunner runner(backfill_graph, bus_, checkpoint_store_);
  UBERRT_RETURN_IF_ERROR(runner.Start());

  BackfillReport report;
  stream::BatchingProducer replay(bus_, replay_topic);
  const auto fail = [&runner](Status status) {
    runner.Cancel();
    return status;
  };
  int64_t since_check = 0;
  for (const std::string& partition : partitions) {
    Result<std::vector<Row>> rows = table.ReadPartition(partition);
    if (!rows.ok()) return fail(rows.status());
    for (Row& row : rows.value()) {
      stream::Message message;
      message.value = EncodeRow(row);
      Status produced = replay.Produce(message);
      if (!produced.ok()) return fail(produced);
      ++report.records_pumped;
      if (++since_check >= options.pump_chunk) {
        since_check = 0;
        // Ship the chunk, then throttle: historic data reads far outpace the
        // job; wait for the pipeline to digest before pumping more.
        Status flushed = replay.Flush();
        if (!flushed.ok()) return fail(flushed);
        while (true) {
          Result<int64_t> lag = runner.SourceLag();
          if (!lag.ok()) break;
          if (lag.value() <= options.max_inflight_records) break;
          SystemClock::Instance()->SleepMs(1);
        }
      }
    }
  }
  Status flushed = replay.Flush();
  if (!flushed.ok()) return fail(flushed);
  runner.RequestFinish();
  Status finished = runner.AwaitTermination(120'000);
  if (!finished.ok()) return fail(finished);
  report.records_out = runner.RecordsOut();
  report.duration_ms = SystemClock::Instance()->NowMs() - start_ms;
  return report;
}

Result<int64_t> KappaReplayableRecords(stream::MessageBus* bus,
                                       const std::string& topic) {
  Result<int32_t> partitions = bus->NumPartitions(topic);
  if (!partitions.ok()) return partitions.status();
  int64_t replayable = 0;
  for (int32_t p = 0; p < partitions.value(); ++p) {
    Result<int64_t> begin = bus->BeginOffset(topic, p);
    Result<int64_t> end = bus->EndOffset(topic, p);
    if (!begin.ok()) return begin.status();
    if (!end.ok()) return end.status();
    replayable += end.value() - begin.value();
  }
  return replayable;
}

}  // namespace uberrt::compute
