#include <gtest/gtest.h>

#include <cstdlib>

#include "stream/consumer.h"
#include "stream/federation.h"

namespace uberrt::stream {
namespace {

Message Msg(const std::string& key, const std::string& value) {
  Message m;
  m.key = key;
  m.value = value;
  m.timestamp = 1;
  return m;
}

class FederationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(
        federation_.AddCluster(std::make_unique<Broker>("c1"), /*capacity=*/2).ok());
    ASSERT_TRUE(
        federation_.AddCluster(std::make_unique<Broker>("c2"), /*capacity=*/2).ok());
  }
  KafkaFederation federation_;
};

TEST_F(FederationTest, TopicsSpreadAcrossLeastLoadedClusters) {
  TopicConfig config;
  config.num_partitions = 2;
  ASSERT_TRUE(federation_.CreateTopic("t1", config).ok());
  ASSERT_TRUE(federation_.CreateTopic("t2", config).ok());
  std::string host1 = federation_.HostingCluster("t1").value();
  std::string host2 = federation_.HostingCluster("t2").value();
  EXPECT_NE(host1, host2);  // least-loaded placement alternates
}

TEST_F(FederationTest, CapacityExhaustedUntilClusterAdded) {
  TopicConfig config;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(federation_.CreateTopic("t" + std::to_string(i), config).ok());
  }
  // All clusters full.
  Status full = federation_.CreateTopic("t4", config);
  EXPECT_EQ(full.code(), StatusCode::kResourceExhausted);
  // Horizontal scaling: add a cluster, creation succeeds again.
  ASSERT_TRUE(federation_.AddCluster(std::make_unique<Broker>("c3"), 2).ok());
  EXPECT_TRUE(federation_.CreateTopic("t4", config).ok());
  EXPECT_EQ(federation_.HostingCluster("t4").value(), "c3");
}

TEST_F(FederationTest, TransparentRouting) {
  TopicConfig config;
  config.num_partitions = 1;
  ASSERT_TRUE(federation_.CreateTopic("t", config).ok());
  Result<ProduceResult> produced = federation_.Produce("t", Msg("k", "v1"));
  ASSERT_TRUE(produced.ok());
  Result<FetchedBatch> fetched = federation_.FetchViews("t", 0, 0, 10);
  ASSERT_TRUE(fetched.ok());
  ASSERT_EQ(fetched.value().size(), 1u);
  EXPECT_EQ(fetched.value().messages[0].value, "v1");
}

TEST_F(FederationTest, ProduceFailsOverWhenHostClusterDies) {
  TopicConfig config;
  config.num_partitions = 1;
  ASSERT_TRUE(federation_.CreateTopic("t", config).ok());
  std::string host = federation_.HostingCluster("t").value();
  federation_.GetCluster(host).value()->SetAvailable(false);
  // Produce triggers automatic failover to a healthy cluster.
  Result<ProduceResult> produced = federation_.Produce("t", Msg("k", "v"));
  ASSERT_TRUE(produced.ok()) << produced.status().ToString();
  std::string new_host = federation_.HostingCluster("t").value();
  EXPECT_NE(new_host, host);
  EXPECT_EQ(federation_.FetchViews("t", 0, 0, 10).value().size(), 1u);
}

TEST_F(FederationTest, LiveConsumerSurvivesTopicMigration) {
  TopicConfig config;
  config.num_partitions = 2;
  ASSERT_TRUE(federation_.CreateTopic("t", config).ok());
  for (int i = 0; i < 10; ++i) {
    federation_.Produce("t", Msg("k" + std::to_string(i), "v" + std::to_string(i))).ok();
  }
  Consumer consumer(&federation_, "g", "t", "m1");
  ASSERT_TRUE(consumer.Subscribe().ok());
  EXPECT_EQ(consumer.PollViews(5).value().size(), 5u);
  ASSERT_TRUE(consumer.Commit().ok());

  // Migrate the topic to the other cluster while the consumer is live.
  std::string host = federation_.HostingCluster("t").value();
  std::string target = host == "c1" ? "c2" : "c1";
  ASSERT_TRUE(federation_.MigrateTopic("t", target).ok());
  EXPECT_EQ(federation_.HostingCluster("t").value(), target);

  // Consumer keeps polling without restart and misses nothing: offsets were
  // preserved by the migration copy.
  size_t got = 0;
  for (int i = 0; i < 10 && got < 5; ++i) {
    got += consumer.PollViews(10).value().size();
  }
  EXPECT_EQ(got, 5u);

  // New data lands on the new cluster and still flows.
  federation_.Produce("t", Msg("kx", "fresh")).ok();
  EXPECT_EQ(consumer.PollViews(10).value().size(), 1u);
}

TEST_F(FederationTest, GroupStateSurvivesMigration) {
  TopicConfig config;
  config.num_partitions = 1;
  ASSERT_TRUE(federation_.CreateTopic("t", config).ok());
  for (int i = 0; i < 6; ++i) federation_.Produce("t", Msg("", "v")).ok();
  ASSERT_TRUE(federation_.CommitOffset("g", "t", 0, 4).ok());
  std::string host = federation_.HostingCluster("t").value();
  ASSERT_TRUE(federation_.MigrateTopic("t", host == "c1" ? "c2" : "c1").ok());
  // Committed offsets live at the federation layer, not the physical
  // cluster, so they survive.
  EXPECT_EQ(federation_.CommittedOffset("g", "t", 0).value(), 4);
  EXPECT_EQ(federation_.ConsumerLag("g", "t").value(), 2);
}

// Migration re-appends fetched frames a chunk at a time. Copying record by
// record gave every record its own batch header, so a size-retained topic
// kept about a quarter fewer messages after migration than before it.
TEST_F(FederationTest, MigrationKeepsSizeRetentionFootprint) {
  TopicConfig config;
  config.num_partitions = 1;
  config.retention.max_bytes = 1'000'000;
  ASSERT_TRUE(federation_.CreateTopic("migrated", config).ok());
  ASSERT_TRUE(federation_.CreateTopic("stayed", config).ok());
  ASSERT_NE(federation_.HostingCluster("migrated").value(),
            federation_.HostingCluster("stayed").value());
  for (const std::string topic : {"migrated", "stayed"}) {
    for (int b = 0; b < 20'000 / 250; ++b) {
      wire::BatchBuilder builder;
      for (int i = 0; i < 250; ++i) builder.Add(Msg("", std::string(40, 'x')));
      ASSERT_TRUE(federation_.ProduceBatch(topic, 0, builder.Finish()).ok());
    }
  }
  std::string host = federation_.HostingCluster("migrated").value();
  ASSERT_TRUE(federation_.MigrateTopic("migrated", host == "c1" ? "c2" : "c1").ok());
  EXPECT_EQ(federation_.EndOffset("migrated", 0).value(), 20'000);
  for (const std::string& cluster : federation_.ListClusters()) {
    federation_.GetCluster(cluster).value()->ApplyRetention();
  }
  auto kept = [&](const std::string& topic) {
    return federation_.EndOffset(topic, 0).value() -
           federation_.BeginOffset(topic, 0).value();
  };
  EXPECT_GT(kept("stayed"), 10'000);
  // Within one migration fetch chunk (1024 records) of the unmigrated topic.
  EXPECT_LE(std::abs(kept("migrated") - kept("stayed")), 1024);
}

}  // namespace
}  // namespace uberrt::stream
