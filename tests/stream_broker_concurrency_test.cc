// Concurrency stress suite for the stream layer. Every test here runs real
// threads against one Broker (or federation) and is meant to be executed
// under -DUBERRT_SANITIZE=thread and =address builds: the pre-shared_ptr
// broker handed out raw Topic*/PartitionLog* pointers captured under its
// mutex and dereferenced after release, which these tests turn into
// use-after-free / data-race reports. On the fixed broker they pass clean.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "stream/broker.h"
#include "stream/consumer.h"
#include "stream/federation.h"
#include "stream/ureplicator.h"
#include "stream/producer.h"

namespace uberrt::stream {
namespace {

Message Msg(const std::string& key, const std::string& value) {
  Message m;
  m.key = key;
  m.value = value;
  m.timestamp = 1;
  return m;
}

TopicConfig Partitions(int32_t n) {
  TopicConfig config;
  config.num_partitions = n;
  return config;
}

// The headline regression: fetch/produce in flight while the topic is
// deleted and recreated. The pre-fix broker captured a PartitionLog* under
// mu_ and read it after release — a use-after-free once DeleteTopic dropped
// the unique_ptr. With shared_ptr topic ownership the in-flight operation
// keeps the log alive and simply races with the route flip, returning
// NotFound/OutOfRange at worst.
TEST(BrokerConcurrencyTest, DeleteTopicWhileFetchAndProduceInFlight) {
  Broker broker("c");
  ASSERT_TRUE(broker.CreateTopic("t", Partitions(2)).ok());
  std::atomic<bool> stop{false};
  std::atomic<int64_t> fetches{0};
  std::atomic<int64_t> produces{0};

  std::thread fetcher([&] {
    while (!stop.load()) {
      Result<FetchedBatch> batch = broker.FetchViews("t", 0, 0, 64);
      // Valid outcomes: data, empty, NotFound (deleted), OutOfRange.
      if (batch.ok()) fetches.fetch_add(1);
    }
  });
  std::thread producer([&] {
    while (!stop.load()) {
      if (ProduceOne(&broker, "t", Msg("", "v")).ok()) produces.fetch_add(1);
    }
  });
  wire::BatchBuilder builder;
  builder.Add(Msg("", "x"));
  const wire::EncodedBatch stray = builder.Finish();
  std::thread offsets([&] {
    while (!stop.load()) {
      broker.BeginOffset("t", 0).ok();
      broker.EndOffset("t", 1).ok();
      broker.ReplicateBatch("t", 0, -1, stray).ok();  // bad offset, still must not crash
    }
  });

  // Churn until the workers have demonstrably raced the lifecycle (or a
  // generous cap on slow machines — single-core schedulers may run the
  // churn loop to completion before a worker thread ever gets a slice).
  TimestampMs deadline = SystemClock::Instance()->NowMs() + 5000;
  for (int i = 0; i < 400 || (fetches.load() == 0 || produces.load() == 0);
       ++i) {
    broker.DeleteTopic("t").ok();
    broker.CreateTopic("t", Partitions(2)).ok();
    if (i % 64 == 0) SystemClock::Instance()->SleepMs(1);
    if (SystemClock::Instance()->NowMs() > deadline) break;
  }
  stop.store(true);
  fetcher.join();
  producer.join();
  offsets.join();
  EXPECT_GT(produces.load(), 0);
  EXPECT_GT(fetches.load(), 0);
  EXPECT_TRUE(broker.HasTopic("t"));
}

// ApplyRetention used to collect raw Topic* under the lock and walk them
// after release; deleting a topic mid-walk freed the partitions under it.
TEST(BrokerConcurrencyTest, RetentionThreadVsTopicChurn) {
  Broker broker("c");
  TopicConfig config = Partitions(2);
  config.retention.max_bytes = 64;  // aggressive truncation
  for (int t = 0; t < 4; ++t) {
    ASSERT_TRUE(
        broker.CreateTopic("t" + std::to_string(t), config).ok());
  }
  std::atomic<bool> stop{false};
  std::thread retention([&] {
    while (!stop.load()) broker.ApplyRetention();
  });
  std::thread producer([&] {
    int i = 0;
    while (!stop.load()) {
      const std::string topic = "t" + std::to_string(i++ % 4);
      ProduceOne(&broker, topic, Msg("", "xxxxxxxxxxxxxxxx")).ok();
    }
  });
  for (int i = 0; i < 300; ++i) {
    std::string name = "t" + std::to_string(i % 4);
    broker.DeleteTopic(name).ok();
    broker.CreateTopic(name, config).ok();
  }
  stop.store(true);
  retention.join();
  producer.join();
}

// Produce and fetch on distinct topics must proceed concurrently (the old
// single coarse mutex serialized them); this is a liveness/correctness smoke
// that also hammers the split topic/group/offset locks from many threads.
TEST(BrokerConcurrencyTest, ParallelTrafficOnDistinctTopics) {
  Broker broker("c");
  constexpr int kTopics = 4;
  constexpr int kPerTopic = 2000;
  for (int t = 0; t < kTopics; ++t) {
    ASSERT_TRUE(broker.CreateTopic("t" + std::to_string(t), Partitions(1)).ok());
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kTopics; ++t) {
    threads.emplace_back([&broker, t] {
      std::string topic = "t" + std::to_string(t);
      for (int i = 0; i < kPerTopic; ++i) {
        ASSERT_TRUE(ProduceOne(&broker, topic, Msg("", "v")).ok());
        broker.CommitOffset("g", topic, 0, i).ok();
        broker.ConsumerLag("g", topic).ok();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kTopics; ++t) {
    EXPECT_EQ(broker.EndOffset("t" + std::to_string(t), 0).value(), kPerTopic);
  }
}

// Consumer groups rebalance-looping: members join and leave while pollers
// read their assignments each cycle and the cluster flips availability.
// Exercises groups_mu_ against topics_mu_ and the atomic available_ flag.
TEST(BrokerConcurrencyTest, RebalanceLoopWithAvailabilityFlips) {
  Broker broker("c");
  ASSERT_TRUE(broker.CreateTopic("t", Partitions(8)).ok());
  for (int i = 0; i < 64; ++i) ProduceOne(&broker, "t", Msg("", "v")).ok();
  std::atomic<bool> stop{false};

  std::vector<std::thread> pollers;
  for (int m = 0; m < 3; ++m) {
    pollers.emplace_back([&broker, &stop, m] {
      std::string member = "m" + std::to_string(m);
      while (!stop.load()) {
        Consumer consumer(&broker, "g", "t", member);
        if (!consumer.Subscribe().ok()) continue;
        for (int i = 0; i < 10 && !stop.load(); ++i) {
          Result<FetchedBatch> batch = consumer.PollViews(16);
          if (batch.ok() && !batch.value().empty()) consumer.Commit().ok();
          broker.GetAssignment("g", "t", member).ok();
          broker.GroupGeneration("g", "t");
        }
        consumer.Close().ok();
      }
    });
  }
  std::thread flipper([&] {
    while (!stop.load()) {
      broker.SetAvailable(false);
      broker.SetAvailable(true);
    }
  });
  std::thread producer([&] {
    while (!stop.load()) ProduceOne(&broker, "t", Msg("k", "v")).ok();
  });

  SystemClock::Instance()->SleepMs(300);
  stop.store(true);
  for (std::thread& t : pollers) t.join();
  flipper.join();
  producer.join();
  EXPECT_GE(broker.GroupGeneration("g", "t"), 2);
}

// The everything-at-once soak: producers, rebalancing consumer groups,
// CreateTopic/DeleteTopic churn and a retention thread, all against the
// same broker. This is the suite's acceptance gate under TSan/ASan.
TEST(BrokerConcurrencyTest, FullStressSoak) {
  Broker broker("c");
  TopicConfig config = Partitions(4);
  config.retention.max_bytes = 4096;
  ASSERT_TRUE(broker.CreateTopic("stable", config).ok());
  ASSERT_TRUE(broker.CreateTopic("churn", config).ok());
  std::atomic<bool> stop{false};

  std::vector<std::thread> threads;
  for (int p = 0; p < 2; ++p) {
    threads.emplace_back([&broker, &stop, p] {
      int i = 0;
      while (!stop.load()) {
        ProduceOne(&broker, i++ % 2 == 0 ? "stable" : "churn",
                       Msg("k" + std::to_string(p), "payload")).ok();
      }
    });
  }
  threads.emplace_back([&broker, &stop] {  // group churn
    while (!stop.load()) {
      broker.JoinGroup("g", "stable", "a").ok();
      broker.GetAssignment("g", "stable", "a").ok();
      broker.JoinGroup("g", "stable", "b").ok();
      broker.GetAssignment("g", "stable", "b").ok();
      broker.LeaveGroup("g", "stable", "b").ok();
      broker.LeaveGroup("g", "stable", "a").ok();
    }
  });
  threads.emplace_back([&broker, &stop] {  // fetcher over both topics
    while (!stop.load()) {
      for (int p = 0; p < 4; ++p) {
        broker.FetchViews("stable", p, 0, 32).ok();
        broker.FetchViews("churn", p, 0, 32).ok();
      }
      broker.ConsumerLag("g", "stable").ok();
    }
  });
  threads.emplace_back([&broker, &stop] {  // retention
    while (!stop.load()) broker.ApplyRetention();
  });
  threads.emplace_back([&broker, &stop, &config] {  // topic churn
    while (!stop.load()) {
      broker.DeleteTopic("churn").ok();
      broker.CreateTopic("churn", config).ok();
    }
  });

  SystemClock::Instance()->SleepMs(400);
  stop.store(true);
  for (std::thread& t : threads) t.join();
  EXPECT_GT(broker.metrics()->GetCounter("broker.c.produced")->value(), 0);
}

// Federation-level race: produce traffic while the hosting cluster dies and
// topics fail over, plus GetCluster handles being used concurrently. The
// shared_ptr<Broker> route means a routed broker can never dangle mid-call.
TEST(FederationConcurrencyTest, ProduceDuringAvailabilityFlapAndFailover) {
  KafkaFederation federation;
  ASSERT_TRUE(federation.AddCluster(std::make_unique<Broker>("c1"), 8).ok());
  ASSERT_TRUE(federation.AddCluster(std::make_unique<Broker>("c2"), 8).ok());
  ASSERT_TRUE(federation.CreateTopic("t", Partitions(2)).ok());
  std::atomic<bool> stop{false};
  std::atomic<int64_t> produced{0};

  std::vector<std::thread> producers;
  for (int p = 0; p < 3; ++p) {
    producers.emplace_back([&] {
      while (!stop.load()) {
        if (ProduceOne(&federation, "t", Msg("k", "v")).ok()) produced.fetch_add(1);
        federation.FetchViews("t", 0, 0, 16).ok();
        federation.ConsumerLag("g", "t").ok();
      }
    });
  }
  std::thread flapper([&] {
    while (!stop.load()) {
      Result<std::string> host = federation.HostingCluster("t");
      if (!host.ok()) continue;
      Result<std::shared_ptr<Broker>> broker = federation.GetCluster(host.value());
      if (!broker.ok()) continue;
      broker.value()->SetAvailable(false);
      SystemClock::Instance()->SleepMs(1);
      broker.value()->SetAvailable(true);
    }
  });

  SystemClock::Instance()->SleepMs(300);
  stop.store(true);
  for (std::thread& t : producers) t.join();
  flapper.join();
  EXPECT_GT(produced.load(), 0);
}

// partitions_moved_total() is read without the replicator lock while
// rebalances bump it — it must be atomic (it was a plain int64_t).
TEST(UReplicatorConcurrencyTest, MovedCounterReadableDuringRebalances) {
  Broker source("src");
  Broker destination("dst");
  ASSERT_TRUE(source.CreateTopic("t", Partitions(8)).ok());
  for (int i = 0; i < 256; ++i) ProduceOne(&source, "t", Msg("", "v")).ok();
  UReplicator replicator(&source, &destination, "r", nullptr);
  ASSERT_TRUE(replicator.AddTopic("t").ok());
  std::atomic<bool> stop{false};

  std::thread reader([&] {
    int64_t last = 0;
    while (!stop.load()) {
      int64_t now = replicator.partitions_moved_total();
      EXPECT_GE(now, last);  // monotone
      last = now;
    }
  });
  std::thread pumper([&] {
    while (!stop.load()) replicator.RunOnce().ok();
  });
  for (int i = 0; i < 200; ++i) {
    int32_t added = -1;
    {
      Result<int64_t> moved = replicator.AddWorker();
      ASSERT_TRUE(moved.ok());
      added = replicator.ActiveWorkers().back();
    }
    replicator.RemoveWorker(added).ok();
  }
  stop.store(true);
  reader.join();
  pumper.join();
}

}  // namespace
}  // namespace uberrt::stream
