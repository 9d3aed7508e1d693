#include <gtest/gtest.h>

#include <atomic>
#include <string>

#include "stream/broker.h"
#include "stream/consumer_proxy.h"
#include "stream/dlq.h"
#include "stream/producer.h"

namespace uberrt::stream {
namespace {

Message Msg(const std::string& key, const std::string& value) {
  Message m;
  m.key = key;
  m.value = value;
  m.timestamp = 1;
  m.headers[kHeaderUid] = value;
  return m;
}

class DlqTest : public ::testing::Test {
 protected:
  void SetUp() override {
    broker_ = std::make_unique<Broker>("c1");
    TopicConfig config;
    config.num_partitions = 2;
    ASSERT_TRUE(broker_->CreateTopic("t", config).ok());
    dlq_ = std::make_unique<DlqManager>(broker_.get(), DlqOptions{2});
    ASSERT_TRUE(dlq_->EnsureTopics("t").ok());
  }
  std::unique_ptr<Broker> broker_;
  std::unique_ptr<DlqManager> dlq_;
};

TEST_F(DlqTest, SideTopicsMirrorPartitions) {
  EXPECT_TRUE(broker_->HasTopic("t__retry"));
  EXPECT_TRUE(broker_->HasTopic("t__dlq"));
  EXPECT_EQ(broker_->NumPartitions("t__retry").value(), 2);
}

TEST_F(DlqTest, FailureRoutesToRetryThenDlq) {
  Message m = Msg("k", "poison");
  auto retry_depth = [&] {
    return broker_->EndOffset("t__retry", 0).value() +
           broker_->EndOffset("t__retry", 1).value();
  };
  // Two retries allowed; third failure parks it.
  ASSERT_TRUE(dlq_->HandleFailure("t", m).ok());  // retry 1
  EXPECT_EQ(retry_depth(), 1);
  EXPECT_EQ(dlq_->DlqDepth("t").value(), 0);
  Message retried = m;
  retried.headers[kHeaderRetryCount] = "1";
  ASSERT_TRUE(dlq_->HandleFailure("t", retried).ok());  // retry 2
  Message exhausted = m;
  exhausted.headers[kHeaderRetryCount] = "2";
  ASSERT_TRUE(dlq_->HandleFailure("t", exhausted).ok());  // -> DLQ
  EXPECT_EQ(dlq_->DlqDepth("t").value(), 1);
}

// The retry header comes from producers: a malformed or out-of-range value
// must neither throw on a proxy worker nor wrap to an arbitrary count.
TEST_F(DlqTest, MalformedRetryHeaderCountsAsZero) {
  Message m = Msg("k", "v");
  for (const char* bad : {"oops", "99999999999", "-3", "12abc", ""}) {
    m.headers[kHeaderRetryCount] = bad;
    EXPECT_EQ(DlqManager::RetryCount(m), 0) << bad;
  }
  m.headers[kHeaderRetryCount] = "7";
  EXPECT_EQ(DlqManager::RetryCount(m), 7);
  m.headers[kHeaderRetryCount] = "2147483647";
  EXPECT_EQ(DlqManager::RetryCount(m), 2147483647);
  // Past the budget: parked, with the next count written without overflow.
  ASSERT_TRUE(dlq_->HandleFailure("t", m).ok());
  EXPECT_EQ(dlq_->DlqDepth("t").value(), 1);
  // A malformed count restarts the budget: the message goes to retry.
  m.headers[kHeaderRetryCount] = "oops";
  ASSERT_TRUE(dlq_->HandleFailure("t", m).ok());
  EXPECT_EQ(dlq_->DlqDepth("t").value(), 1);
  Result<FetchedBatch> retry = broker_->FetchViews("t__retry", 0, 0, 10);
  Result<FetchedBatch> retry1 = broker_->FetchViews("t__retry", 1, 0, 10);
  ASSERT_TRUE(retry.ok() && retry1.ok());
  retry.value().Merge(std::move(retry1.value()));
  ASSERT_EQ(retry.value().size(), 1u);
  std::string_view count;
  ASSERT_TRUE(retry.value().messages[0].GetHeader(kHeaderRetryCount, &count));
  EXPECT_EQ(count, "1");
}

TEST_F(DlqTest, MergeReinjectsAndPurgeDrops) {
  Message m = Msg("k", "bad");
  m.headers[kHeaderRetryCount] = "5";  // over budget -> straight to DLQ
  ASSERT_TRUE(dlq_->HandleFailure("t", m).ok());
  ASSERT_TRUE(dlq_->HandleFailure("t", m).ok());
  EXPECT_EQ(dlq_->DlqDepth("t").value(), 2);

  int64_t main_before = broker_->EndOffset("t", 0).value() +
                        broker_->EndOffset("t", 1).value();
  Result<int64_t> merged = dlq_->Merge("t", "ops");
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged.value(), 2);
  int64_t main_after = broker_->EndOffset("t", 0).value() +
                       broker_->EndOffset("t", 1).value();
  EXPECT_EQ(main_after - main_before, 2);  // re-injected with reset budget

  // Merge again: already consumed (offset tracked per consumer group).
  EXPECT_EQ(dlq_->Merge("t", "ops").value(), 0);

  // Park more and purge.
  ASSERT_TRUE(dlq_->HandleFailure("t", m).ok());
  EXPECT_EQ(dlq_->Purge("t", "ops").value(), 1);
  EXPECT_EQ(dlq_->Merge("t", "ops").value(), 0);
}

class ConsumerProxyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    broker_ = std::make_unique<Broker>("c1");
    TopicConfig config;
    config.num_partitions = 2;
    ASSERT_TRUE(broker_->CreateTopic("t", config).ok());
  }
  std::unique_ptr<Broker> broker_;
};

TEST_F(ConsumerProxyTest, DispatchesEveryMessageOnce) {
  for (int i = 0; i < 200; ++i) {
    const std::string n = std::to_string(i);
    ProduceOne(broker_.get(), "t", Msg("k" + n, "v" + n)).ok();
  }
  std::atomic<int64_t> received{0};
  ConsumerProxyOptions options;
  options.num_workers = 4;
  ConsumerProxy proxy(broker_.get(), "t", "g",
                      [&](const Message&) {
                        received.fetch_add(1);
                        return Status::Ok();
                      },
                      options);
  ASSERT_TRUE(proxy.Start().ok());
  ASSERT_TRUE(proxy.WaitUntilCaughtUp().ok());
  proxy.Stop();
  EXPECT_EQ(received.load(), 200);
  EXPECT_EQ(proxy.succeeded(), 200);
  EXPECT_EQ(proxy.dead_lettered(), 0);
}

TEST_F(ConsumerProxyTest, ParallelismBeyondPartitionCount) {
  // 2 partitions but 8 workers: a slow endpoint finishes ~4x faster than
  // partition-bound consumption would allow. We assert concurrency directly:
  // the max number of simultaneously-running endpoint calls exceeds the
  // partition count.
  for (int i = 0; i < 64; ++i) ProduceOne(broker_.get(), "t", Msg("", "v")).ok();
  std::atomic<int32_t> in_endpoint{0};
  std::atomic<int32_t> max_concurrent{0};
  ConsumerProxyOptions options;
  options.num_workers = 8;
  ConsumerProxy proxy(broker_.get(), "t", "g",
                      [&](const Message&) {
                        int32_t now = in_endpoint.fetch_add(1) + 1;
                        int32_t seen = max_concurrent.load();
                        while (now > seen &&
                               !max_concurrent.compare_exchange_weak(seen, now)) {
                        }
                        SystemClock::Instance()->SleepMs(2);
                        in_endpoint.fetch_sub(1);
                        return Status::Ok();
                      },
                      options);
  ASSERT_TRUE(proxy.Start().ok());
  ASSERT_TRUE(proxy.WaitUntilCaughtUp().ok());
  proxy.Stop();
  EXPECT_GT(max_concurrent.load(), 2);  // more parallel than partitions
}

TEST_F(ConsumerProxyTest, PoisonMessagesGoToDlqWithoutBlockingTraffic) {
  for (int i = 0; i < 50; ++i) {
    ProduceOne(broker_.get(), "t", Msg("k" + std::to_string(i),
                              i % 10 == 0 ? "poison" : "ok")).ok();
  }
  std::atomic<int64_t> processed{0};
  ConsumerProxyOptions options;
  options.num_workers = 4;
  options.max_retries = 2;
  ConsumerProxy proxy(broker_.get(), "t", "g",
                      [&](const Message& m) {
                        if (m.value == "poison") return Status::Internal("cannot parse");
                        processed.fetch_add(1);
                        return Status::Ok();
                      },
                      options);
  ASSERT_TRUE(proxy.Start().ok());
  ASSERT_TRUE(proxy.WaitUntilCaughtUp().ok());
  proxy.Stop();
  // All healthy messages processed despite the poison ones.
  EXPECT_EQ(processed.load(), 45);
  // Every poison message exhausted its retries and was parked.
  EXPECT_EQ(proxy.dead_lettered(), 5);
  EXPECT_EQ(proxy.dlq()->DlqDepth("t").value(), 5);
  // And nothing was lost: 45 ok + 5 parked = 50.
}

TEST_F(ConsumerProxyTest, MalformedRetryHeaderDoesNotStopWorkers) {
  for (int i = 0; i < 20; ++i) {
    Message m = Msg("k" + std::to_string(i), i % 4 == 0 ? "poison" : "ok");
    m.headers[kHeaderRetryCount] = i % 2 == 0 ? "oops" : "99999999999";
    ASSERT_TRUE(ProduceOne(broker_.get(), "t", m).ok());
  }
  std::atomic<int64_t> processed{0};
  ConsumerProxyOptions options;
  options.num_workers = 4;
  options.max_retries = 2;
  ConsumerProxy proxy(broker_.get(), "t", "g",
                      [&](const Message& m) {
                        if (m.value == "poison") return Status::Internal("cannot parse");
                        processed.fetch_add(1);
                        return Status::Ok();
                      },
                      options);
  ASSERT_TRUE(proxy.Start().ok());
  ASSERT_TRUE(proxy.WaitUntilCaughtUp().ok());
  proxy.Stop();
  EXPECT_EQ(processed.load(), 15);
  // Each poison message restarted its budget at 0 and used all of it.
  EXPECT_EQ(proxy.dead_lettered(), 5);
  EXPECT_EQ(proxy.dlq()->DlqDepth("t").value(), 5);
}

}  // namespace
}  // namespace uberrt::stream
