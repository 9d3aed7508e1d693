#include "compute/job_runner.h"

#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <set>

#include "common/clock.h"
#include "common/fault_injector.h"
#include "stream/broker.h"
#include "stream/producer.h"

namespace uberrt::compute {
namespace {

using stream::AckMode;
using stream::Broker;
using stream::Message;
using stream::ProduceOne;
using stream::TopicConfig;

RowSchema TripSchema() {
  return RowSchema({{"hex", ValueType::kString},
                    {"fare", ValueType::kDouble},
                    {"ts", ValueType::kInt}});
}

Message TripMessage(const std::string& hex, double fare, int64_t ts) {
  Message m;
  m.key = hex;
  m.value = EncodeRow({Value(hex), Value(fare), Value(ts)});
  m.timestamp = ts;
  return m;
}

class JobRunnerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    broker_ = std::make_unique<Broker>("cluster1");
    store_ = std::make_unique<storage::InMemoryObjectStore>();
    TopicConfig config;
    config.num_partitions = 4;
    ASSERT_TRUE(broker_->CreateTopic("trips", config).ok());
  }

  std::unique_ptr<Broker> broker_;
  std::unique_ptr<storage::InMemoryObjectStore> store_;
};

TEST_F(JobRunnerTest, MapFilterPipelineDeliversAllRows) {
  for (int i = 0; i < 100; ++i) {
    const Message m = TripMessage("hex" + std::to_string(i % 7), i, 1000 + i);
    ASSERT_TRUE(ProduceOne(broker_.get(), "trips", m).ok());
  }
  std::mutex mu;
  std::vector<Row> results;
  JobGraph graph("map_filter");
  SourceSpec source;
  source.topic = "trips";
  source.schema = TripSchema();
  source.time_field = "ts";
  graph.AddSource(source)
      .Filter("cheap", [](const Row& r) { return r[1].ToNumeric() < 50.0; })
      .Map(
          "double_fare",
          [](const Row& r) {
            return Row{r[0], Value(r[1].ToNumeric() * 2.0), r[2]};
          },
          TripSchema())
      .SinkToCollector([&](const Row& row, TimestampMs) {
        std::lock_guard<std::mutex> lock(mu);
        results.push_back(row);
      });

  JobRunner runner(graph, broker_.get(), store_.get());
  ASSERT_TRUE(runner.Start().ok());
  runner.RequestFinish();
  ASSERT_TRUE(runner.AwaitTermination(10000).ok());
  EXPECT_EQ(results.size(), 50u);
  EXPECT_EQ(runner.RecordsIn(), 100);
  EXPECT_EQ(runner.RecordsOut(), 50);
  for (const Row& r : results) EXPECT_LT(r[1].ToNumeric(), 100.0);
}

TEST_F(JobRunnerTest, TumblingWindowCountsPerKey) {
  // 2 keys x 3 windows x 10 records.
  for (int w = 0; w < 3; ++w) {
    for (int i = 0; i < 10; ++i) {
      int64_t ts = w * 60000 + i * 100;
      ASSERT_TRUE(ProduceOne(broker_.get(), "trips", TripMessage("A", 1.0, ts)).ok());
      ASSERT_TRUE(ProduceOne(broker_.get(), "trips", TripMessage("B", 2.0, ts)).ok());
    }
  }
  std::mutex mu;
  std::vector<Row> results;
  JobGraph graph("windowed");
  SourceSpec source;
  source.topic = "trips";
  source.schema = TripSchema();
  source.time_field = "ts";
  source.watermark_interval_records = 8;
  graph.AddSource(source)
      .WindowAggregate("agg", {"hex"}, WindowSpec::Tumbling(60000),
                       {AggregateSpec::Count("n"), AggregateSpec::Sum("fare", "total"),
                        AggregateSpec::Avg("fare", "avg_fare")},
                       /*allowed_lateness_ms=*/0, /*parallelism=*/2)
      .SinkToCollector([&](const Row& row, TimestampMs) {
        std::lock_guard<std::mutex> lock(mu);
        results.push_back(row);
      });

  JobRunner runner(graph, broker_.get(), store_.get());
  ASSERT_TRUE(runner.Start().ok());
  runner.RequestFinish();
  ASSERT_TRUE(runner.AwaitTermination(10000).ok());

  ASSERT_EQ(results.size(), 6u);  // 2 keys x 3 windows
  for (const Row& r : results) {
    // [hex, window_start, n, total, avg]
    EXPECT_EQ(r.size(), 5u);
    EXPECT_EQ(r[2].AsInt(), 10);
    if (r[0].AsString() == "A") {
      EXPECT_DOUBLE_EQ(r[3].AsDouble(), 10.0);
      EXPECT_DOUBLE_EQ(r[4].AsDouble(), 1.0);
    } else {
      EXPECT_DOUBLE_EQ(r[3].AsDouble(), 20.0);
      EXPECT_DOUBLE_EQ(r[4].AsDouble(), 2.0);
    }
  }
}

TEST_F(JobRunnerTest, CheckpointRestartResumesWithoutDuplicateState) {
  std::mutex mu;
  std::vector<Row> results;
  auto make_graph = [&] {
    JobGraph graph("chk");
    SourceSpec source;
    source.topic = "trips";
    source.schema = TripSchema();
    source.time_field = "ts";
    source.watermark_interval_records = 4;
    graph.AddSource(source)
        .WindowAggregate("agg", {"hex"}, WindowSpec::Tumbling(60000),
                         {AggregateSpec::Count("n")})
        .SinkToCollector([&](const Row& row, TimestampMs) {
          std::lock_guard<std::mutex> lock(mu);
          results.push_back(row);
        });
    return graph;
  };

  // Phase 1: half the data, checkpoint, crash.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(ProduceOne(broker_.get(), "trips", TripMessage("A", 1.0, 1000 + i)).ok());
  }
  {
    JobRunner runner(make_graph(), broker_.get(), store_.get());
    ASSERT_TRUE(runner.Start().ok());
    ASSERT_TRUE(runner.WaitUntilCaughtUp(10000).ok());
    Result<int64_t> seq = runner.TriggerCheckpoint();
    ASSERT_TRUE(seq.ok()) << seq.status().ToString();
    runner.Cancel();  // crash: window never fired, no output
  }
  EXPECT_TRUE(results.empty());

  // Phase 2: rest of the data, restore, finish.
  for (int i = 50; i < 100; ++i) {
    ASSERT_TRUE(ProduceOne(broker_.get(), "trips", TripMessage("A", 1.0, 1000 + i)).ok());
  }
  {
    JobRunner runner(make_graph(), broker_.get(), store_.get());
    ASSERT_TRUE(runner.RestoreFromCheckpoint().ok());
    ASSERT_TRUE(runner.Start().ok());
    runner.RequestFinish();
    ASSERT_TRUE(runner.AwaitTermination(10000).ok());
  }
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0][2].AsInt(), 100);  // exactly-once state across restart
}

TEST_F(JobRunnerTest, WindowJoinMatchesWithinWindow) {
  TopicConfig config;
  config.num_partitions = 2;
  ASSERT_TRUE(broker_->CreateTopic("predictions", config).ok());
  ASSERT_TRUE(broker_->CreateTopic("outcomes", config).ok());

  RowSchema pred_schema({{"model", ValueType::kString},
                         {"predicted", ValueType::kDouble},
                         {"ts", ValueType::kInt}});
  RowSchema outcome_schema({{"model", ValueType::kString},
                            {"actual", ValueType::kDouble},
                            {"ts2", ValueType::kInt}});
  for (int i = 0; i < 20; ++i) {
    Message p;
    p.key = "m" + std::to_string(i % 2);
    p.value = EncodeRow({Value(p.key), Value(0.5 + i), Value(static_cast<int64_t>(1000 + i))});
    p.timestamp = 1000 + i;
    ASSERT_TRUE(ProduceOne(broker_.get(), "predictions", p).ok());
    Message o;
    o.key = p.key;
    o.value = EncodeRow({Value(o.key), Value(0.4 + i), Value(static_cast<int64_t>(1001 + i))});
    o.timestamp = 1001 + i;
    ASSERT_TRUE(ProduceOne(broker_.get(), "outcomes", o).ok());
  }

  std::mutex mu;
  std::vector<Row> results;
  JobGraph graph("join");
  SourceSpec left;
  left.topic = "predictions";
  left.schema = pred_schema;
  left.time_field = "ts";
  left.watermark_interval_records = 4;
  SourceSpec right;
  right.topic = "outcomes";
  right.schema = outcome_schema;
  right.time_field = "ts2";
  right.watermark_interval_records = 4;
  graph.AddSource(left).AddSource(right);
  graph.WindowJoin("join", {"model"}, WindowSpec::Tumbling(60000));
  graph.SinkToCollector([&](const Row& row, TimestampMs) {
    std::lock_guard<std::mutex> lock(mu);
    results.push_back(row);
  });

  JobRunner runner(graph, broker_.get(), store_.get());
  ASSERT_TRUE(runner.Start().ok());
  runner.RequestFinish();
  ASSERT_TRUE(runner.AwaitTermination(10000).ok());
  // All records share one window; 10 left x 10 right per key.
  EXPECT_EQ(results.size(), 200u);
  // Joined row: model, predicted, ts, actual, ts2.
  ASSERT_FALSE(results.empty());
  EXPECT_EQ(results[0].size(), 5u);
}

TEST_F(JobRunnerTest, LateRecordsAreDropped) {
  std::mutex mu;
  std::vector<Row> results;
  JobGraph graph("late");
  SourceSpec source;
  source.topic = "trips";
  source.schema = TripSchema();
  source.time_field = "ts";
  source.watermark_interval_records = 1;  // watermark after every record
  graph.AddSource(source)
      .WindowAggregate("agg", {"hex"}, WindowSpec::Tumbling(1000),
                       {AggregateSpec::Count("n")})
      .SinkToCollector([&](const Row& row, TimestampMs) {
        std::lock_guard<std::mutex> lock(mu);
        results.push_back(row);
      });

  JobRunner runner(graph, broker_.get(), store_.get());
  ASSERT_TRUE(runner.Start().ok());
  // Window [0,1000) then jump to 5000 (fires it), then a late record at 500.
  ASSERT_TRUE(ProduceOne(broker_.get(), "trips", TripMessage("A", 1.0, 100)).ok());
  ASSERT_TRUE(ProduceOne(broker_.get(), "trips", TripMessage("A", 1.0, 5000)).ok());
  ASSERT_TRUE(runner.WaitUntilCaughtUp(10000).ok());
  ASSERT_TRUE(ProduceOne(broker_.get(), "trips", TripMessage("A", 1.0, 500)).ok());
  runner.RequestFinish();
  ASSERT_TRUE(runner.AwaitTermination(10000).ok());
  EXPECT_EQ(runner.LateDropped(), 1);
  // Two windows fired: [0,1000) with 1 record, [5000,6000) with 1.
  EXPECT_EQ(results.size(), 2u);
}

TEST_F(JobRunnerTest, SkewedFirstBatchesAfterStartMatchPreProducedInput) {
  // A batching producer lands each partition's first batch at a different
  // moment. A job started before it must not treat the partitions still
  // empty when the first batch arrives as idle and race its watermark past
  // their events: its window counts must equal those of a job that finds
  // the same input already in the topic.
  auto partition_batch = [](int32_t p) {
    stream::wire::BatchBuilder builder;
    for (int i = 0; i < 40; ++i) {
      const std::string key = std::to_string((i + p) % 3);
      int64_t ts = i * 250;  // 10 one-second windows, every partition
      builder.Add(TripMessage("h" + key, 1.0, ts));
    }
    return builder.Finish();
  };
  auto make_graph = [](std::mutex* mu, std::map<std::pair<std::string, int64_t>, int64_t>* counts) {
    JobGraph graph("skewed");
    SourceSpec source;
    source.topic = "trips";
    source.schema = TripSchema();
    source.time_field = "ts";
    source.watermark_interval_records = 1;
    graph.AddSource(source)
        .WindowAggregate("agg", {"hex"}, WindowSpec::Tumbling(1000),
                         {AggregateSpec::Count("n")})
        .SinkToCollector([mu, counts](const Row& row, TimestampMs) {
          std::lock_guard<std::mutex> lock(*mu);
          (*counts)[{row[0].AsString(), row[1].AsInt()}] += row[2].AsInt();
        });
    return graph;
  };

  std::mutex mu;
  std::map<std::pair<std::string, int64_t>, int64_t> live;
  JobRunner runner(make_graph(&mu, &live), broker_.get(), store_.get());
  ASSERT_TRUE(runner.Start().ok());
  // Partition 0's first batch lands alone, and the source reads all of it
  // (one watermark per record) before the other partitions' batches land.
  ASSERT_TRUE(broker_->ProduceBatch("trips", 0, partition_batch(0),
                                    AckMode::kLeader, stream::Priority::kImportant).ok());
  for (int spin = 0; spin < 10000 && runner.RecordsIn() < 40; ++spin) {
    SystemClock::Instance()->SleepMs(1);
  }
  ASSERT_EQ(runner.RecordsIn(), 40);
  for (int32_t p = 1; p < 4; ++p) {
    ASSERT_TRUE(broker_->ProduceBatch("trips", p, partition_batch(p),
                                      AckMode::kLeader, stream::Priority::kImportant).ok());
  }
  runner.RequestFinish();
  ASSERT_TRUE(runner.AwaitTermination(10000).ok());
  EXPECT_EQ(runner.LateDropped(), 0);

  std::map<std::pair<std::string, int64_t>, int64_t> preproduced;
  JobRunner reference(make_graph(&mu, &preproduced), broker_.get(), store_.get());
  ASSERT_TRUE(reference.Start().ok());
  reference.RequestFinish();
  ASSERT_TRUE(reference.AwaitTermination(10000).ok());
  ASSERT_EQ(reference.RecordsIn(), 160);
  EXPECT_EQ(preproduced.size(), 30u);  // 3 keys x 10 windows
  EXPECT_EQ(live, preproduced);
}

TEST_F(JobRunnerTest, CorruptMessagesCountedNotFatal) {
  Message bad;
  bad.value = "not-a-row";
  ASSERT_TRUE(ProduceOne(broker_.get(), "trips", bad).ok());
  ASSERT_TRUE(ProduceOne(broker_.get(), "trips", TripMessage("A", 1.0, 100)).ok());

  std::mutex mu;
  std::vector<Row> results;
  JobGraph graph("corrupt");
  SourceSpec source;
  source.topic = "trips";
  source.schema = TripSchema();
  source.time_field = "ts";
  graph.AddSource(source).SinkToCollector([&](const Row& row, TimestampMs) {
    std::lock_guard<std::mutex> lock(mu);
    results.push_back(row);
  });

  JobRunner runner(graph, broker_.get(), store_.get());
  ASSERT_TRUE(runner.Start().ok());
  runner.RequestFinish();
  ASSERT_TRUE(runner.AwaitTermination(10000).ok());
  EXPECT_EQ(runner.DecodeErrors(), 1);
  EXPECT_EQ(results.size(), 1u);
}

/// Every fare (unique per input row) the sink topic holds, one entry per copy.
std::multiset<int64_t> SinkFares(Broker* broker, const std::string& topic) {
  std::multiset<int64_t> fares;
  for (int32_t p = 0; p < broker->NumPartitions(topic).value(); ++p) {
    Result<stream::FetchedBatch> messages = broker->FetchViews(topic, p, 0, 1 << 20);
    EXPECT_TRUE(messages.ok());
    if (!messages.ok()) continue;
    for (const stream::wire::MessageView& m : messages.value().messages) {
      Result<Row> row = DecodeRow(m.value);
      EXPECT_TRUE(row.ok());
      if (row.ok()) fares.insert(static_cast<int64_t>(row.value()[1].ToNumeric()));
    }
  }
  return fares;
}

TEST_F(JobRunnerTest, FailedSinkFlushesAreRetriedExactlyOnce) {
  constexpr int kRows = 2000;
  for (int i = 0; i < kRows; ++i) {
    const Message m = TripMessage("hex" + std::to_string(i % 7), i, 1000 + i);
    ASSERT_TRUE(ProduceOne(broker_.get(), "trips", m).ok());
  }
  TopicConfig out_config;
  out_config.num_partitions = 2;
  ASSERT_TRUE(broker_->CreateTopic("trips_out", out_config).ok());
  // The sink's first five batch appends fail; the source only fetches.
  common::FaultInjector faults;
  common::FaultRule flaky;
  flaky.error_probability = 1.0;
  flaky.max_triggers = 5;
  faults.SetRule("broker.produce.cluster1", flaky);
  broker_->SetFaultInjector(&faults);

  JobGraph graph("sink_retry");
  SourceSpec source;
  source.topic = "trips";
  source.schema = TripSchema();
  source.time_field = "ts";
  graph.AddSource(source).SinkToTopic("trips_out");
  MetricsRegistry metrics;
  JobRunnerOptions options;
  options.metrics = &metrics;
  JobRunner runner(graph, broker_.get(), store_.get(), options);
  ASSERT_TRUE(runner.Start().ok());
  runner.RequestFinish();
  ASSERT_TRUE(runner.AwaitTermination(10000).ok());

  EXPECT_EQ(faults.metrics()->GetCounter("faults.injected")->value(), 5);
  const int64_t errors = metrics.GetCounter("compute.sink_produce_errors")->value();
  EXPECT_GE(errors, 1);
  EXPECT_LE(errors, 5);
  std::multiset<int64_t> fares = SinkFares(broker_.get(), "trips_out");
  ASSERT_EQ(fares.size(), static_cast<size_t>(kRows));
  for (int i = 0; i < kRows; ++i) EXPECT_EQ(fares.count(i), 1u) << "fare " << i;
}

TEST_F(JobRunnerTest, UndeliveredSinkRowsHoldTheJobNotCaughtUp) {
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(ProduceOne(broker_.get(), "trips", TripMessage("h", i, 1000 + i)).ok());
  }
  TopicConfig out_config;
  out_config.num_partitions = 2;
  ASSERT_TRUE(broker_->CreateTopic("trips_out", out_config).ok());
  common::FaultInjector faults;
  broker_->SetFaultInjector(&faults);
  faults.SetDown("broker.produce.cluster1", true);

  JobGraph graph("sink_outage");
  SourceSpec source;
  source.topic = "trips";
  source.schema = TripSchema();
  source.time_field = "ts";
  graph.AddSource(source).SinkToTopic("trips_out");
  JobRunner runner(graph, broker_.get(), store_.get());
  ASSERT_TRUE(runner.Start().ok());
  // Rows the sink cannot append stay in flight: the job is not caught up,
  // so a checkpoint cannot pass them by.
  EXPECT_TRUE(runner.WaitUntilCaughtUp(200).IsTimeout());
  EXPECT_TRUE(SinkFares(broker_.get(), "trips_out").empty());

  faults.SetDown("broker.produce.cluster1", false);
  ASSERT_TRUE(runner.WaitUntilCaughtUp(10000).ok());
  ASSERT_TRUE(runner.TriggerCheckpoint().ok());
  std::multiset<int64_t> fares = SinkFares(broker_.get(), "trips_out");
  EXPECT_EQ(fares.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(fares.count(i), 1u) << "fare " << i;
  runner.Cancel();
}

}  // namespace
}  // namespace uberrt::compute
