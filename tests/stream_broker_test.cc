#include <gtest/gtest.h>

#include <array>
#include <map>
#include <set>
#include <vector>

#include "common/clock.h"
#include "common/fault_injector.h"
#include "stream/broker.h"
#include "stream/consumer.h"
#include "stream/log.h"
#include "stream/producer.h"

namespace uberrt::stream {
namespace {

Message Msg(const std::string& key, const std::string& value, TimestampMs ts = 0) {
  Message m;
  m.key = key;
  m.value = value;
  m.timestamp = ts;
  return m;
}

wire::EncodedBatch Batch(const std::vector<Message>& messages) {
  wire::BatchBuilder builder;
  for (const Message& m : messages) builder.Add(m);
  return builder.Finish();
}

/// Admission stub: each non-critical class may use `budget` units, then is
/// shed; critical is always admitted.
class BudgetAdmission : public ProduceAdmission {
 public:
  explicit BudgetAdmission(int64_t budget) : budget_(budget) {}
  Status AdmitProduce(const std::string&, Priority priority, int64_t units) override {
    int64_t& used = used_[static_cast<size_t>(priority)];
    if (priority != Priority::kCritical && used + units > budget_) {
      return Status::ResourceExhausted("shed");
    }
    used += units;
    return Status::Ok();
  }
  int64_t used(Priority priority) const { return used_[static_cast<size_t>(priority)]; }

 private:
  int64_t budget_;
  std::array<int64_t, kNumPriorities> used_{};
};

TEST(PartitionLogTest, OffsetsAreDenseAndMonotonic) {
  PartitionLog log;
  EXPECT_EQ(log.AppendBatch(Batch({Msg("", "a")})).value(), 0);
  EXPECT_EQ(log.AppendBatch(Batch({Msg("", "b")})).value(), 1);
  EXPECT_EQ(log.BeginOffset(), 0);
  EXPECT_EQ(log.EndOffset(), 2);
  Result<FetchedBatch> read = log.ReadViews(0, 10);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read.value().size(), 2u);
  EXPECT_EQ(read.value().messages[1].value, "b");
  EXPECT_EQ(read.value().messages[1].offset, 1);
}

TEST(PartitionLogTest, ReadBoundsChecked) {
  PartitionLog log;
  log.AppendBatch(Batch({Msg("", "a")})).value();
  EXPECT_TRUE(log.ReadViews(5, 1).status().code() == StatusCode::kOutOfRange);
  // Reading at end offset returns empty, not an error.
  Result<FetchedBatch> at_end = log.ReadViews(1, 1);
  ASSERT_TRUE(at_end.ok());
  EXPECT_TRUE(at_end.value().empty());
}

TEST(PartitionLogTest, AgeRetentionAdvancesBeginOffset) {
  PartitionLog log;
  for (int i = 0; i < 10; ++i) {
    log.AppendBatch(Batch({Msg("", "m", /*ts=*/i * 100)})).value();
  }
  RetentionPolicy policy;
  policy.max_age_ms = 500;
  int64_t dropped = log.ApplyRetention(policy, /*now=*/1000);
  // Messages with ts < 500 dropped: ts 0..400 -> 5 messages.
  EXPECT_EQ(dropped, 5);
  EXPECT_EQ(log.BeginOffset(), 5);
  EXPECT_EQ(log.EndOffset(), 10);
  EXPECT_TRUE(log.ReadViews(0, 1).status().code() == StatusCode::kOutOfRange);
  EXPECT_EQ(log.ReadViews(5, 1).value().messages[0].timestamp, 500);
}

TEST(PartitionLogTest, SizeRetentionKeepsNewest) {
  PartitionLog log;
  for (int i = 0; i < 100; ++i) {
    log.AppendBatch(Batch({Msg("", std::string(100, 'x'), 1)})).value();
  }
  RetentionPolicy policy;
  policy.max_bytes = 1500;
  log.ApplyRetention(policy, 0);
  EXPECT_LE(log.Bytes(), 1500);
  EXPECT_GT(log.Size(), 0);
  EXPECT_EQ(log.EndOffset(), 100);  // numbering preserved
}

class BrokerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    broker_ = std::make_unique<Broker>("c1");
    TopicConfig config;
    config.num_partitions = 4;
    ASSERT_TRUE(broker_->CreateTopic("t", config).ok());
  }
  std::unique_ptr<Broker> broker_;
};

TEST_F(BrokerTest, TopicLifecycle) {
  EXPECT_TRUE(broker_->HasTopic("t"));
  EXPECT_EQ(broker_->NumPartitions("t").value(), 4);
  EXPECT_TRUE(broker_->CreateTopic("t", TopicConfig()).IsAlreadyExists());
  EXPECT_TRUE(broker_->DeleteTopic("t").ok());
  EXPECT_FALSE(broker_->HasTopic("t"));
  EXPECT_TRUE(ProduceOne(broker_.get(), "t", Msg("k", "v")).status().IsNotFound());
}

TEST_F(BrokerTest, KeyedMessagesLandOnOnePartition) {
  int32_t first = -1;
  for (int i = 0; i < 10; ++i) {
    Result<ProduceResult> r = ProduceOne(broker_.get(), "t", Msg("same-key", "v"));
    ASSERT_TRUE(r.ok());
    if (first < 0) first = r.value().partition;
    EXPECT_EQ(r.value().partition, first);
  }
}

TEST_F(BrokerTest, NegativePartitionRoundRobinsAcrossEveryPartition) {
  // ProduceBatch with partition -1 takes the topic's round-robin counter;
  // keyless ProduceOne sends ride the same counter.
  std::map<int32_t, int> batches;
  for (int i = 0; i < 8; ++i) {
    Result<ProduceResult> r =
        broker_->ProduceBatch("t", -1, Batch({Msg("", "a", 5), Msg("", "b", 5)}),
                              AckMode::kLeader, Priority::kImportant);
    ASSERT_TRUE(r.ok());
    ++batches[r.value().partition];
  }
  ASSERT_EQ(batches.size(), 4u);
  for (int32_t p = 0; p < 4; ++p) {
    EXPECT_EQ(batches[p], 2) << "partition " << p;
    EXPECT_EQ(broker_->EndOffset("t", p).value(), 4);
  }
  std::set<int32_t> partitions;
  for (int i = 0; i < 4; ++i) {
    partitions.insert(ProduceOne(broker_.get(), "t", Msg("", "v")).value().partition);
  }
  EXPECT_EQ(partitions.size(), 4u);
  EXPECT_TRUE(broker_->ProduceBatch("t", 4, Batch({Msg("", "v", 5)}), AckMode::kLeader,
                                    Priority::kImportant)
                  .status()
                  .code() == StatusCode::kInvalidArgument);
}

TEST_F(BrokerTest, BatchIsShedOrAdmittedWholeAtItsPriority) {
  BudgetAdmission admission(/*budget=*/10);
  broker_->SetAdmission(&admission);
  const wire::EncodedBatch batch = Batch(std::vector<Message>(16, Msg("k", "v", 5)));
  // Sixteen best-effort records exceed the budget of ten: the batch is shed
  // as one block, and nothing of it is stored.
  Result<ProduceResult> shed =
      broker_->ProduceBatch("t", 0, batch, AckMode::kLeader, Priority::kBestEffort);
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(broker_->EndOffset("t", 0).value(), 0);
  EXPECT_EQ(admission.used(Priority::kBestEffort), 0);
  // The same batch at the critical class is admitted, charged per record.
  Result<ProduceResult> admitted =
      broker_->ProduceBatch("t", 0, batch, AckMode::kLeader, Priority::kCritical);
  ASSERT_TRUE(admitted.ok());
  EXPECT_EQ(admitted.value().offset, 0);
  EXPECT_EQ(broker_->EndOffset("t", 0).value(), 16);
  EXPECT_EQ(admission.used(Priority::kCritical), 16);
  // Unlabeled batches are important; one-off sends carry their class too.
  EXPECT_TRUE(broker_->ProduceBatch("t", 1, Batch({Msg("k", "v", 5)}), AckMode::kLeader,
                                    Priority::kImportant)
                  .ok());
  EXPECT_EQ(admission.used(Priority::kImportant), 1);
  EXPECT_TRUE(ProduceOne(broker_.get(), "t", Msg("k", "v"), AckMode::kLeader,
                         Priority::kBestEffort)
                  .ok());
  EXPECT_EQ(admission.used(Priority::kBestEffort), 1);
  broker_->SetAdmission(nullptr);
}

TEST_F(BrokerTest, UnavailableClusterBehaviour) {
  TopicConfig lossy;
  lossy.num_partitions = 1;
  lossy.lossless = false;
  ASSERT_TRUE(broker_->CreateTopic("surge", lossy).ok());
  broker_->SetAvailable(false);
  // Lossless topic: hard failure.
  EXPECT_TRUE(ProduceOne(broker_.get(), "t", Msg("k", "v")).status().IsUnavailable());
  // Non-lossless topic: silently dropped (availability over consistency).
  Result<ProduceResult> dropped = ProduceOne(broker_.get(), "surge", Msg("k", "v"));
  ASSERT_TRUE(dropped.ok());
  EXPECT_TRUE(dropped.value().dropped);
  // Fetch fails while down.
  EXPECT_TRUE(broker_->FetchViews("t", 0, 0, 1).status().IsUnavailable());
  broker_->SetAvailable(true);
  EXPECT_TRUE(ProduceOne(broker_.get(), "t", Msg("k", "v")).ok());
  // The dropped message is really gone.
  EXPECT_EQ(broker_->EndOffset("surge", 0).value(), 0);
}

TEST_F(BrokerTest, MissingTopicIsNotFoundEvenWhenUnavailable) {
  // Regression: an unavailable cluster used to answer Unavailable for every
  // produce, including topics that do not exist — so federation retry logic
  // would retry forever against a topic that will never exist. Existence is
  // checked first now.
  broker_->SetAvailable(false);
  EXPECT_TRUE(ProduceOne(broker_.get(), "ghost", Msg("k", "v")).status().IsNotFound());
  EXPECT_TRUE(broker_->ProduceBatch("ghost", -1, Batch({Msg("", "v", 5)}), AckMode::kLeader,
                                    Priority::kImportant)
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(broker_->FetchViews("ghost", 0, 0, 1).status().IsNotFound());
  wire::BatchBuilder builder;
  builder.Add(Msg("k", "v"));
  EXPECT_TRUE(broker_->ReplicateBatch("ghost", 0, 0, builder.Finish()).IsNotFound());
  // Existing topics keep the availability semantics.
  EXPECT_TRUE(ProduceOne(broker_.get(), "t", Msg("k", "v")).status().IsUnavailable());
  broker_->SetAvailable(true);
  EXPECT_TRUE(ProduceOne(broker_.get(), "ghost", Msg("k", "v")).status().IsNotFound());
}

TEST_F(BrokerTest, RangeAssignmentIsContiguousAndBalanced) {
  // Kafka's range strategy: contiguous blocks in sorted-member order, the
  // first (partitions % members) members take one extra partition.
  ASSERT_TRUE(broker_->JoinGroup("g", "t", "a").ok());
  ASSERT_TRUE(broker_->JoinGroup("g", "t", "b").ok());
  ASSERT_TRUE(broker_->JoinGroup("g", "t", "c").ok());
  // 4 partitions, 3 members: a=[0,1], b=[2], c=[3].
  EXPECT_EQ(broker_->GetAssignment("g", "t", "a").value(),
            (std::vector<int32_t>{0, 1}));
  EXPECT_EQ(broker_->GetAssignment("g", "t", "b").value(),
            (std::vector<int32_t>{2}));
  EXPECT_EQ(broker_->GetAssignment("g", "t", "c").value(),
            (std::vector<int32_t>{3}));
  ASSERT_TRUE(broker_->LeaveGroup("g", "t", "b").ok());
  // 4 partitions, 2 members: contiguous halves.
  EXPECT_EQ(broker_->GetAssignment("g", "t", "a").value(),
            (std::vector<int32_t>{0, 1}));
  EXPECT_EQ(broker_->GetAssignment("g", "t", "c").value(),
            (std::vector<int32_t>{2, 3}));
}

TEST_F(BrokerTest, ConsumerGroupAssignmentCoversAllPartitions) {
  ASSERT_TRUE(broker_->JoinGroup("g", "t", "m1").ok());
  ASSERT_TRUE(broker_->JoinGroup("g", "t", "m2").ok());
  EXPECT_TRUE(broker_->JoinGroup("g", "t", "m1").IsAlreadyExists());
  std::set<int32_t> covered;
  for (const char* member : {"m1", "m2"}) {
    Result<std::vector<int32_t>> assigned = broker_->GetAssignment("g", "t", member);
    ASSERT_TRUE(assigned.ok());
    EXPECT_EQ(assigned.value().size(), 2u);
    for (int32_t p : assigned.value()) covered.insert(p);
  }
  EXPECT_EQ(covered.size(), 4u);
  int64_t generation = broker_->GroupGeneration("g", "t");
  ASSERT_TRUE(broker_->LeaveGroup("g", "t", "m2").ok());
  EXPECT_GT(broker_->GroupGeneration("g", "t"), generation);
  EXPECT_EQ(broker_->GetAssignment("g", "t", "m1").value().size(), 4u);
}

TEST_F(BrokerTest, CommittedOffsetsAndLag) {
  for (int i = 0; i < 10; ++i) ProduceOne(broker_.get(), "t", Msg("", "v")).ok();
  EXPECT_TRUE(broker_->CommittedOffset("g", "t", 0).status().IsNotFound());
  EXPECT_EQ(broker_->ConsumerLag("g", "t").value(), 10);
  for (int32_t p = 0; p < 4; ++p) {
    int64_t end = broker_->EndOffset("t", p).value();
    broker_->CommitOffset("g", "t", p, end).ok();
  }
  EXPECT_EQ(broker_->ConsumerLag("g", "t").value(), 0);
}

TEST_F(BrokerTest, ConsumerPollsAllMessagesAndRebalances) {
  for (int i = 0; i < 20; ++i) {
    const std::string n = std::to_string(i);
    ProduceOne(broker_.get(), "t", Msg("k" + n, "v" + n)).ok();
  }
  Consumer c1(broker_.get(), "g", "t", "m1");
  ASSERT_TRUE(c1.Subscribe().ok());
  Result<FetchedBatch> batch = c1.PollViews(100);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch.value().size(), 20u);
  ASSERT_TRUE(c1.Commit().ok());

  // Second consumer joins: m1 gives up half the partitions but progress is
  // preserved via committed offsets.
  Consumer c2(broker_.get(), "g", "t", "m2");
  ASSERT_TRUE(c2.Subscribe().ok());
  for (int i = 0; i < 20; ++i) {
    ProduceOne(broker_.get(), "t", Msg("k" + std::to_string(i), "w")).ok();
  }
  size_t total = c1.PollViews(100).value().size() + c2.PollViews(100).value().size();
  EXPECT_EQ(total, 20u);  // no duplicates, nothing lost
}

TEST_F(BrokerTest, ConsumerSurvivesRetentionTruncation) {
  TopicConfig config;
  config.num_partitions = 1;
  config.retention.max_age_ms = 100;
  ASSERT_TRUE(broker_->CreateTopic("short", config).ok());
  TimestampMs now = SystemClock::Instance()->NowMs();
  for (int i = 0; i < 5; ++i) {
    ProduceOne(broker_.get(), "short", Msg("", "old", now - 10'000)).ok();
  }
  Consumer consumer(broker_.get(), "g", "short", "m");
  ASSERT_TRUE(consumer.Subscribe().ok());
  // Truncate everything before the consumer reads.
  broker_->ApplyRetention();
  for (int i = 0; i < 3; ++i) {
    ProduceOne(broker_.get(), "short", Msg("", "new", now)).ok();
  }
  Result<FetchedBatch> batch = consumer.PollViews(100);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch.value().size(), 3u);  // jumped to the retained range
}

// A fetch error on a later partition used to drop the views already gathered
// from earlier partitions after their positions had advanced: those messages
// were never delivered, and the next Commit persisted the skip.
TEST_F(BrokerTest, FailedPollLeavesPositionsSoNoMessageIsSkipped) {
  constexpr int kMessages = 4000;
  for (int i = 0; i < kMessages; ++i) {
    ASSERT_TRUE(ProduceOne(broker_.get(), "t", Msg("k" + std::to_string(i), "v")).ok());
  }
  common::FaultInjector faults(/*seed=*/7);
  common::FaultRule flaky;
  flaky.error_probability = 0.3;
  faults.SetRule("broker.fetch.c1", flaky);
  broker_->SetFaultInjector(&faults);
  Consumer consumer(broker_.get(), "g", "t", "m");
  ASSERT_TRUE(consumer.Subscribe().ok());
  std::map<int32_t, std::set<int64_t>> delivered;
  int failed_polls = 0;
  for (int i = 0; i < 2000; ++i) {
    Result<FetchedBatch> batch = consumer.PollViews(5000);
    if (!batch.ok()) {
      ++failed_polls;
      continue;
    }
    for (const wire::MessageView& v : batch.value().messages) {
      delivered[v.partition].insert(v.offset);
    }
    ASSERT_TRUE(consumer.Commit().ok());
  }
  EXPECT_GT(failed_polls, 0);
  size_t total = 0;
  for (int32_t p = 0; p < 4; ++p) {
    int64_t end = broker_->EndOffset("t", p).value();
    // Every offset in [0, end) delivered: the set holds exactly those.
    EXPECT_EQ(static_cast<int64_t>(delivered[p].size()), end) << "partition " << p;
    if (!delivered[p].empty()) {
      EXPECT_EQ(*delivered[p].rbegin(), end - 1);
    }
    Result<int64_t> committed = broker_->CommittedOffset("g", "t", p);
    ASSERT_TRUE(committed.ok());
    EXPECT_EQ(committed.value(), end);
    total += delivered[p].size();
  }
  EXPECT_EQ(total, static_cast<size_t>(kMessages));
  broker_->SetFaultInjector(nullptr);
}

TEST(BrokerCoordinationTest, ClusterSizeCoordinationCost) {
  // The Section 4.1.1 model: per-produce work grows superlinearly with the
  // node count, so big clusters are slower per message.
  auto measure = [](int32_t nodes) {
    BrokerOptions options;
    options.num_nodes = nodes;
    options.coordination_model_enabled = true;
    Broker broker("c", options);
    TopicConfig config;
    config.num_partitions = 1;
    broker.CreateTopic("t", config).ok();
    TimestampMs start = SystemClock::Instance()->NowMs();
    for (int i = 0; i < 3000; ++i) {
      Message m;
      m.value = "x";
      ProduceOne(&broker, "t", std::move(m)).ok();
    }
    return SystemClock::Instance()->NowMs() - start + 1;
  };
  // 600-node cluster should be clearly slower per message than 100-node.
  EXPECT_GT(measure(600), measure(100));
}

}  // namespace
}  // namespace uberrt::stream
