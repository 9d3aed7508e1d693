#include <gtest/gtest.h>

#include "stream/broker.h"
#include "stream/chaperone.h"
#include "stream/ureplicator.h"
#include "stream/producer.h"

namespace uberrt::stream {
namespace {

Message Msg(const std::string& value, TimestampMs ts = 1) {
  Message m;
  m.value = value;
  m.timestamp = ts;
  m.headers[kHeaderUid] = value;
  return m;
}

class UReplicatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    source_ = std::make_unique<Broker>("src");
    destination_ = std::make_unique<Broker>("dst");
    TopicConfig config;
    config.num_partitions = 8;
    ASSERT_TRUE(source_->CreateTopic("t", config).ok());
  }
  std::unique_ptr<Broker> source_;
  std::unique_ptr<Broker> destination_;
  OffsetMappingStore mappings_;
};

TEST_F(UReplicatorTest, ReplicatesAllMessagesInPartitionOrder) {
  for (int i = 0; i < 100; ++i) {
    Message m = Msg("v" + std::to_string(i));
    m.partition = i % 8;
    ProduceOne(source_.get(), "t", std::move(m)).ok();
  }
  UReplicator replicator(source_.get(), destination_.get(), "src>dst", &mappings_);
  ASSERT_TRUE(replicator.AddTopic("t").ok());
  Result<int64_t> copied = replicator.RunUntilCaughtUp();
  ASSERT_TRUE(copied.ok());
  EXPECT_EQ(copied.value(), 100);
  EXPECT_EQ(replicator.TotalLag().value(), 0);
  // Destination created with same partition count; per-partition order kept.
  EXPECT_EQ(destination_->NumPartitions("t").value(), 8);
  Result<FetchedBatch> p0 = destination_->FetchViews("t", 0, 0, 100);
  ASSERT_TRUE(p0.ok());
  const std::vector<wire::MessageView>& views = p0.value().messages;
  for (size_t i = 1; i < views.size(); ++i) {
    // Values v0, v8, v16... arrive in source order.
    EXPECT_LT(std::stoi(std::string(views[i - 1].value.substr(1))),
              std::stoi(std::string(views[i].value.substr(1))));
  }
}

TEST_F(UReplicatorTest, MinimalRebalanceMovesOnlyDeadWorkersPartitions) {
  UReplicatorOptions options;
  options.num_workers = 4;
  options.num_standby_workers = 0;
  UReplicator replicator(source_.get(), destination_.get(), "r", &mappings_, options);
  ASSERT_TRUE(replicator.AddTopic("t").ok());
  // 8 partitions over 4 workers: 2 each.
  Result<int64_t> moved = replicator.RemoveWorker(0);
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(moved.value(), 2);  // only worker 0's partitions moved
}

TEST_F(UReplicatorTest, FullRehashMovesMostPartitions) {
  UReplicatorOptions options;
  options.num_workers = 4;
  options.num_standby_workers = 0;
  options.rebalance_mode = RebalanceMode::kFullRehash;
  UReplicator replicator(source_.get(), destination_.get(), "r", &mappings_, options);
  ASSERT_TRUE(replicator.AddTopic("t").ok());
  replicator.RemoveWorker(0).ok();  // initial hash layout
  Result<int64_t> moved = replicator.RemoveWorker(1);
  ASSERT_TRUE(moved.ok());
  // Rehash over a changed worker list moves far more than the dead
  // worker's fair share (2).
  EXPECT_GT(moved.value(), 2);
}

TEST_F(UReplicatorTest, BurstTrafficShiftsToStandbyWorkers) {
  UReplicatorOptions options;
  options.num_workers = 2;
  options.num_standby_workers = 1;
  options.burst_lag_threshold = 50;
  UReplicator replicator(source_.get(), destination_.get(), "r", &mappings_, options);
  ASSERT_TRUE(replicator.AddTopic("t").ok());
  // Burst into 6 of 8 partitions: the two active workers are overloaded
  // (3 bursting each vs a fair share of 2 over the 3-worker pool), so the
  // fair-share redistribution hands some to the standby.
  for (int i = 0; i < 1'200; ++i) {
    Message m = Msg("burst");
    m.partition = i % 6;
    ProduceOne(source_.get(), "t", std::move(m)).ok();
  }
  std::set<int32_t> owners_before;
  for (int32_t p = 0; p < 6; ++p) owners_before.insert(replicator.OwnerOf({"t", p}));
  EXPECT_EQ(owners_before.size(), 2u);  // only actives
  ASSERT_TRUE(replicator.RunOnce().ok());
  std::set<int32_t> owners_after;
  for (int32_t p = 0; p < 6; ++p) owners_after.insert(replicator.OwnerOf({"t", p}));
  EXPECT_EQ(owners_after.size(), 3u);  // standby now carries burst load
  EXPECT_GT(replicator.partitions_moved_total(), 0);
  ASSERT_TRUE(replicator.RunUntilCaughtUp().ok());
  EXPECT_EQ(replicator.TotalLag().value(), 0);
}

TEST_F(UReplicatorTest, OffsetMappingCheckpointsRecorded) {
  UReplicatorOptions options;
  options.checkpoint_every = 10;
  UReplicator replicator(source_.get(), destination_.get(), "r", &mappings_, options);
  ASSERT_TRUE(replicator.AddTopic("t").ok());
  for (int i = 0; i < 100; ++i) {
    Message m = Msg("v");
    m.partition = 0;
    ProduceOne(source_.get(), "t", std::move(m)).ok();
  }
  ASSERT_TRUE(replicator.RunUntilCaughtUp().ok());
  TopicPartition tp{"t", 0};
  std::vector<OffsetMapping> all = mappings_.GetAll("r", tp);
  EXPECT_GE(all.size(), 9u);
  // Lookup semantics: latest checkpoint at or before a source offset.
  Result<OffsetMapping> at = mappings_.LatestAtOrBefore("r", tp, 35);
  ASSERT_TRUE(at.ok());
  EXPECT_LE(at.value().source_offset, 35);
  // Inverse lookup by destination.
  Result<OffsetMapping> inverse = mappings_.LatestByDestinationAtOrBefore("r", tp, 35);
  ASSERT_TRUE(inverse.ok());
  EXPECT_LE(inverse.value().destination_offset, 35);
  // The first checkpoint is an anchor at the route's first copied message,
  // so lookups below the first cadence checkpoint resolve to it instead of
  // NotFound — offset sync relies on this to prove a source with no
  // qualifying checkpoint was never consumed at all.
  Result<OffsetMapping> anchor = mappings_.LatestAtOrBefore("r", tp, 3);
  ASSERT_TRUE(anchor.ok());
  EXPECT_EQ(anchor.value().source_offset, 0);
  EXPECT_EQ(anchor.value().destination_offset, 0);
  ASSERT_TRUE(mappings_.Earliest("r", tp).ok());
  EXPECT_EQ(mappings_.Earliest("r", tp).value().destination_offset, 0);
  // A route that never copied anything has no anchor.
  EXPECT_TRUE(mappings_.Earliest("r", TopicPartition{"t", 5}).status().IsNotFound());
}

TEST(ChaperoneTest, DetectsLossBetweenStages) {
  Chaperone audit(1000);
  for (int i = 0; i < 10; ++i) {
    audit.RecordRaw("producer", "t", 100 + i, "uid" + std::to_string(i));
  }
  for (int i = 0; i < 7; ++i) {  // 3 lost downstream
    audit.RecordRaw("aggregate", "t", 100 + i, "uid" + std::to_string(i));
  }
  std::vector<AuditAlert> alerts = audit.Compare("producer", "aggregate", "t");
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].kind, AuditAlert::Kind::kLoss);
  EXPECT_EQ(alerts[0].upstream_count, 10);
  EXPECT_EQ(alerts[0].downstream_count, 7);
}

TEST(ChaperoneTest, DetectsDuplication) {
  Chaperone audit(1000);
  for (int i = 0; i < 5; ++i) {
    audit.RecordRaw("producer", "t", 50, "uid" + std::to_string(i));
    audit.RecordRaw("replica", "t", 50, "uid" + std::to_string(i));
  }
  audit.RecordRaw("replica", "t", 50, "uid0");  // duplicate
  std::vector<AuditAlert> alerts = audit.Compare("producer", "replica", "t");
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].kind, AuditAlert::Kind::kDuplication);
}

TEST(ChaperoneTest, CleanPipelineRaisesNoAlerts) {
  Chaperone audit(1000);
  for (int i = 0; i < 50; ++i) {
    std::string uid = "u" + std::to_string(i);
    TimestampMs ts = i * 100;
    audit.RecordRaw("producer", "t", ts, uid);
    audit.RecordRaw("regional", "t", ts, uid);
    audit.RecordRaw("aggregate", "t", ts, uid);
  }
  EXPECT_TRUE(audit.Compare("producer", "regional", "t").empty());
  EXPECT_TRUE(audit.Compare("regional", "aggregate", "t").empty());
  EXPECT_EQ(audit.TotalCount("producer", "t"), 50);
  // Windowing: events spread across 5 windows of 1000ms.
  EXPECT_EQ(audit.GetStats("producer", "t").size(), 5u);
}

TEST(ChaperoneTest, EndToEndThroughReplication) {
  // Wire a real replication pipeline and verify the audit catches injected
  // loss (bench C13's core path).
  Broker source("src"), destination("dst");
  TopicConfig config;
  config.num_partitions = 2;
  source.CreateTopic("t", config).ok();
  Chaperone audit(1000);
  for (int i = 0; i < 40; ++i) {
    Message m = Msg("uid" + std::to_string(i), 100 + i * 10);
    audit.Record("producer", "t", m);
    ProduceOne(&source, "t", std::move(m)).ok();
  }
  OffsetMappingStore mappings;
  UReplicator replicator(&source, &destination, "r", &mappings);
  replicator.AddTopic("t").ok();
  replicator.RunUntilCaughtUp().ok();
  // Downstream stage records what actually arrived, minus 2 "lost" ones.
  int skipped = 0;
  for (int32_t p = 0; p < 2; ++p) {
    Result<FetchedBatch> arrived = destination.FetchViews("t", p, 0, 100);
    ASSERT_TRUE(arrived.ok());
    for (const wire::MessageView& v : arrived.value().messages) {
      std::string_view uid;
      ASSERT_TRUE(v.GetHeader(kHeaderUid, &uid));
      if (skipped < 2 && uid == "uid" + std::to_string(p)) {
        ++skipped;  // simulate loss of two specific messages
        continue;
      }
      audit.RecordRaw("aggregate", "t", v.timestamp, std::string(uid));
    }
  }
  std::vector<AuditAlert> alerts = audit.Compare("producer", "aggregate", "t");
  ASSERT_FALSE(alerts.empty());
  int64_t lost = 0;
  for (const AuditAlert& alert : alerts) {
    ASSERT_EQ(alert.kind, AuditAlert::Kind::kLoss);
    lost += alert.upstream_count - alert.downstream_count;
  }
  EXPECT_EQ(lost, 2);
}

}  // namespace
}  // namespace uberrt::stream
