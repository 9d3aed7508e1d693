#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/clock.h"
#include "stream/broker.h"
#include "stream/consumer.h"
#include "stream/log.h"
#include "stream/producer.h"
#include "stream/wire.h"

namespace uberrt::stream {
namespace {

Message Msg(const std::string& key, const std::string& value, TimestampMs ts = 1) {
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

// --- frame format -----------------------------------------------------------

TEST(WireTest, FrameSizeMatchesEncodedBytes) {
  Message m = Msg("key", "some value", 42);
  m.headers["uid"] = "abc-123";
  m.headers["service"] = "rides";
  std::string buf;
  wire::AppendFrame(buf, m);
  EXPECT_EQ(buf.size(), m.FrameSize());

  Message empty;
  std::string buf2;
  wire::AppendFrame(buf2, empty);
  EXPECT_EQ(buf2.size(), empty.FrameSize());
  EXPECT_EQ(buf2.size(), 4 + wire::kMinFrameLen);
}

TEST(WireTest, MessageRoundTripsThroughFrame) {
  Message m = Msg("k1", "v1", 77);
  m.headers["uid"] = "u-9";
  m.headers["tier"] = "1";
  wire::EncodedBatch batch = Batch({m});
  Result<wire::BatchReader> reader = wire::BatchReader::Open(batch.data);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader.value().record_count(), 1u);
  EXPECT_EQ(reader.value().max_timestamp(), 77);
  Result<wire::MessageView> view = reader.value().Next();
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view.value().key, "k1");
  EXPECT_EQ(view.value().value, "v1");
  EXPECT_EQ(view.value().timestamp, 77);
  EXPECT_EQ(view.value().header_count, 2u);
  std::string_view header;
  ASSERT_TRUE(view.value().GetHeader("uid", &header));
  EXPECT_EQ(header, "u-9");
  EXPECT_FALSE(view.value().GetHeader("absent", &header));
  Message back = view.value().ToMessage();
  EXPECT_EQ(back.key, m.key);
  EXPECT_EQ(back.value, m.value);
  EXPECT_EQ(back.headers, m.headers);
}

TEST(WireTest, CorruptedPayloadFailsCrc) {
  wire::EncodedBatch batch = Batch({Msg("k", "payload-bytes", 5)});
  ASSERT_TRUE(wire::ValidateBatch(batch.data).ok());
  // Flip one payload byte: the CRC must catch it.
  std::string corrupted = batch.data;
  corrupted[wire::kBatchHeaderSize + 10] ^= 0x01;
  EXPECT_TRUE(wire::ValidateBatch(corrupted).IsCorruption());
  // And a corrupted batch is rejected before any log state changes.
  PartitionLog log;
  wire::EncodedBatch bad = batch;
  bad.data = corrupted;
  EXPECT_TRUE(log.AppendBatch(bad).status().IsCorruption());
  EXPECT_EQ(log.EndOffset(), 0);
}

TEST(WireTest, BadMagicAndTruncationRejected) {
  wire::EncodedBatch batch = Batch({Msg("k", "v", 5)});
  std::string bad_magic = batch.data;
  bad_magic[0] = 0x00;
  EXPECT_FALSE(wire::ValidateBatch(bad_magic).ok());
  EXPECT_FALSE(wire::ValidateBatch(batch.data.substr(0, 10)).ok());
  EXPECT_FALSE(wire::ValidateBatch(batch.data.substr(0, batch.data.size() - 1)).ok());
}

// --- partition log ----------------------------------------------------------

TEST(StreamLogTest, AppendBatchAssignsDenseOffsetsAcrossBatches) {
  PartitionLog log;
  Result<int64_t> first = log.AppendBatch(Batch({Msg("", "a"), Msg("", "b")}));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value(), 0);
  // A one-record batch interleaves with larger ones.
  EXPECT_EQ(log.AppendBatch(Batch({Msg("", "c")})).value(), 2);
  Result<int64_t> second = log.AppendBatch(Batch({Msg("", "d")}));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value(), 3);
  EXPECT_EQ(log.EndOffset(), 4);
  Result<FetchedBatch> views = log.ReadViews(0, 10);
  ASSERT_TRUE(views.ok());
  ASSERT_EQ(views.value().size(), 4u);
  const char* expected[] = {"a", "b", "c", "d"};
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(views.value().messages[i].offset, i);
    EXPECT_EQ(views.value().messages[i].value, expected[i]);
  }
}

TEST(StreamLogTest, OffsetContinuityAcrossTruncation) {
  PartitionLog log;
  for (int i = 0; i < 10; ++i) {
    log.AppendBatch(Batch({Msg("", "m" + std::to_string(i), 100 + i)})).value();
  }
  RetentionPolicy policy;
  policy.max_age_ms = 5;
  ASSERT_EQ(log.ApplyRetention(policy, /*now=*/110), 5);  // ts 100..104 dropped
  EXPECT_EQ(log.BeginOffset(), 5);
  EXPECT_EQ(log.EndOffset(), 10);
  // Offsets are never renumbered: message 7 is still at offset 7.
  Result<FetchedBatch> views = log.ReadViews(7, 1);
  ASSERT_TRUE(views.ok());
  ASSERT_EQ(views.value().size(), 1u);
  EXPECT_EQ(views.value().messages[0].value, "m7");
  // Truncated-away and beyond-end offsets are OutOfRange; appends continue
  // from the preserved numbering.
  EXPECT_TRUE(log.ReadViews(4, 1).status().code() == StatusCode::kOutOfRange);
  EXPECT_TRUE(log.ReadViews(11, 1).status().code() == StatusCode::kOutOfRange);
  EXPECT_EQ(log.AppendBatch(Batch({Msg("", "next")})).value(), 10);
}

TEST(StreamLogTest, AppendBatchAtRejectsGaps) {
  PartitionLog log;
  // A fresh log starts at 0 unless StartAt says otherwise.
  EXPECT_EQ(log.AppendBatchAt(887, Batch({Msg("", "z")})).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(log.AppendBatchAt(0, Batch({Msg("", "a")})).ok());
  // skips 1..4
  EXPECT_EQ(log.AppendBatchAt(5, Batch({Msg("", "b")})).code(),
            StatusCode::kInvalidArgument);
  // already taken
  EXPECT_EQ(log.AppendBatchAt(0, Batch({Msg("", "c")})).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(log.EndOffset(), 1);
}

TEST(StreamLogTest, StartAtSetsAFreshLogsStartOffset) {
  // Kafka's log start offset: a fresh log receiving a head-truncated
  // partition starts where the source's retained data starts.
  PartitionLog log;
  ASSERT_TRUE(log.StartAt(887).ok());
  EXPECT_EQ(log.BeginOffset(), 887);
  EXPECT_EQ(log.EndOffset(), 887);
  // The gap check applies from the first replicated batch on.
  EXPECT_EQ(log.AppendBatchAt(0, Batch({Msg("", "z")})).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(log.AppendBatchAt(887, Batch({Msg("", "a"), Msg("", "b")})).ok());
  EXPECT_EQ(log.ReadViews(888, 1).value().messages[0].value, "b");
  EXPECT_EQ(log.AppendBatch(Batch({Msg("", "c")})).value(), 889);
  // Only a log that never held an offset accepts a start offset.
  EXPECT_EQ(log.StartAt(0).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(log.EndOffset(), 890);
}

TEST(StreamLogTest, ViewsSurviveRetentionViaPins) {
  PartitionLogOptions options;
  options.segment_bytes = 64;  // force an arena per batch
  PartitionLog log(options);
  log.AppendBatch(Batch({Msg("k0", "first-batch-value", 10)})).value();
  log.AppendBatch(Batch({Msg("k1", "second-batch-value", 20)})).value();
  Result<FetchedBatch> fetched = log.ReadViews(0, 10);
  ASSERT_TRUE(fetched.ok());
  ASSERT_EQ(fetched.value().size(), 2u);
  // Retention truncates everything the views point at...
  RetentionPolicy policy;
  policy.max_age_ms = 1;
  ASSERT_EQ(log.ApplyRetention(policy, /*now=*/1000), 2);
  EXPECT_EQ(log.BeginOffset(), 2);
  // ...but the FetchedBatch pins the arena segments, so the borrowed views
  // stay valid until the batch is destroyed.
  EXPECT_EQ(fetched.value().messages[0].value, "first-batch-value");
  EXPECT_EQ(fetched.value().messages[1].value, "second-batch-value");
  EXPECT_EQ(fetched.value().messages[1].ToMessage().key, "k1");
}

TEST(StreamLogTest, BytesTracksEncodedBatchSizes) {
  PartitionLog log;
  EXPECT_EQ(log.Bytes(), 0);
  Message m = Msg("key", "value", 3);
  m.headers["uid"] = "u";
  wire::EncodedBatch batch = Batch({m, m});
  log.AppendBatch(batch).value();
  EXPECT_EQ(log.Bytes(), static_cast<int64_t>(batch.bytes()));
  EXPECT_EQ(batch.bytes(), wire::kBatchHeaderSize + 2 * m.FrameSize());
  // Retention accounting returns to zero when everything is truncated.
  RetentionPolicy policy;
  policy.max_age_ms = 1;
  log.ApplyRetention(policy, 1000);
  EXPECT_EQ(log.Bytes(), 0);
}

// --- retention bugfix regressions -------------------------------------------

TEST(StreamLogTest, SizeRetentionNeverDropsNewestBatch) {
  PartitionLog log;
  // A single batch far larger than the budget must survive: an acked produce
  // is never truncated by its own arrival.
  log.AppendBatch(Batch({Msg("", std::string(4096, 'x'), 1)})).value();
  RetentionPolicy policy;
  policy.max_bytes = 100;
  EXPECT_EQ(log.ApplyRetention(policy, 0), 0);
  EXPECT_EQ(log.Size(), 1);
  // Once a newer batch arrives, the old oversized one may go, but the newest
  // again stays even though it also exceeds the budget on its own.
  log.AppendBatch(Batch({Msg("", std::string(4096, 'y'), 2)})).value();
  EXPECT_EQ(log.ApplyRetention(policy, 0), 1);
  EXPECT_EQ(log.BeginOffset(), 1);
  EXPECT_EQ(log.Size(), 1);
  EXPECT_EQ(log.ReadViews(1, 1).value().messages[0].value[0], 'y');
}

TEST(StreamLogTest, AgeRetentionUsesMonotoneWatermark) {
  PartitionLogOptions options;
  options.segment_bytes = 64;  // one arena per batch
  PartitionLog log(options);
  // Fresh data first, then a late record whose event timestamp is ancient.
  log.AppendBatch(Batch({Msg("", std::string(64, 'a'), 10000)})).value();
  log.AppendBatch(Batch({Msg("", "late", 10)})).value();
  // Drop the first batch via size retention so the late record is at the
  // front with its own timestamp ancient but its watermark fresh.
  RetentionPolicy size_policy;
  size_policy.max_bytes = 50;
  ASSERT_EQ(log.ApplyRetention(size_policy, 0), 1);
  ASSERT_EQ(log.BeginOffset(), 1);
  // Old semantics compared the record's own timestamp (10) and would expire
  // it here; the monotone watermark (10000) keeps it alive as long as the
  // data appended around it.
  RetentionPolicy age_policy;
  age_policy.max_age_ms = 500;
  EXPECT_EQ(log.ApplyRetention(age_policy, /*now=*/9000), 0);
  EXPECT_EQ(log.Size(), 1);
  // And it expires with its append cohort, not its event timestamp.
  EXPECT_EQ(log.ApplyRetention(age_policy, /*now=*/10501), 1);
  EXPECT_EQ(log.Size(), 0);
}

TEST(StreamLogTest, AgeRetentionStrictlyByAppendOrder) {
  PartitionLogOptions options;
  options.segment_bytes = 16;  // one arena per batch
  PartitionLog log(options);
  // Timestamps out of order across appends: 100, 5000, 300.
  log.AppendBatch(Batch({Msg("", "a", 100)})).value();
  log.AppendBatch(Batch({Msg("", "b", 5000)})).value();
  log.AppendBatch(Batch({Msg("", "c", 300)})).value();
  RetentionPolicy policy;
  policy.max_age_ms = 1000;
  // Threshold 4000: only the first batch's watermark (100) is expired. The
  // third batch (own ts 300, watermark 5000) is fenced by append order.
  EXPECT_EQ(log.ApplyRetention(policy, /*now=*/5000), 1);
  EXPECT_EQ(log.BeginOffset(), 1);
  EXPECT_EQ(log.Size(), 2);
  // Threshold 5500: everything behind the watermark expires together.
  EXPECT_EQ(log.ApplyRetention(policy, /*now=*/6500), 2);
  EXPECT_EQ(log.Size(), 0);
}

// --- batching producer / zero-copy consumer end to end ----------------------

TEST(StreamLogTest, BatchingProducerRoundTripsThroughBroker) {
  SimulatedClock clock(1000);
  Broker broker("c1", BrokerOptions{}, &clock);
  TopicConfig config;
  config.num_partitions = 2;
  ASSERT_TRUE(broker.CreateTopic("t", config).ok());

  BatchingProducerOptions options;
  options.batch_records = 8;
  options.linger_ms = -1;  // flush on size or explicitly
  BatchingProducer producer(&broker, "t", options, &clock);
  for (int i = 0; i < 100; ++i) {
    Message m = Msg("key" + std::to_string(i), "value" + std::to_string(i));
    m.headers["uid"] = "u" + std::to_string(i);
    ASSERT_TRUE(producer.Produce(m).ok());
  }
  ASSERT_TRUE(producer.Flush().ok());
  EXPECT_EQ(producer.produced(), 100);
  EXPECT_EQ(producer.buffered(), 0);
  // Batching amortization actually happened: far fewer batches than records.
  EXPECT_LT(producer.batches_flushed(), 30);

  Consumer consumer(&broker, "g", "t", "m1");
  ASSERT_TRUE(consumer.Subscribe().ok());
  size_t got = 0;
  std::map<std::string, std::string> seen;  // key -> value
  for (int i = 0; i < 50 && got < 100; ++i) {
    Result<FetchedBatch> batch = consumer.PollViews(32);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    for (const wire::MessageView& v : batch.value().messages) {
      EXPECT_GE(v.partition, 0);
      EXPECT_LT(v.partition, 2);
      std::string_view uid;
      EXPECT_TRUE(v.GetHeader("uid", &uid));
      seen[std::string(v.key)] = std::string(v.value);
    }
    got += batch.value().size();
  }
  EXPECT_EQ(got, 100u);
  ASSERT_EQ(seen.size(), 100u);
  EXPECT_EQ(seen["key42"], "value42");
}

TEST(StreamLogTest, LingerBudgetFlushesSparseTraffic) {
  SimulatedClock clock(0);
  Broker broker("c1", BrokerOptions{}, &clock);
  TopicConfig config;
  config.num_partitions = 1;
  ASSERT_TRUE(broker.CreateTopic("t", config).ok());

  BatchingProducerOptions options;
  options.batch_records = 1000;  // never flush on size in this test
  options.linger_ms = 5;
  BatchingProducer producer(&broker, "t", options, &clock);
  ASSERT_TRUE(producer.Produce(Msg("", "sparse")).ok());
  EXPECT_EQ(producer.produced(), 0);  // still buffered
  EXPECT_EQ(producer.buffered(), 1);
  clock.AdvanceMs(10);
  ASSERT_TRUE(producer.MaybeFlushLinger().ok());
  EXPECT_EQ(producer.produced(), 1);
  EXPECT_EQ(broker.EndOffset("t", 0).value(), 1);
}

}  // namespace
}  // namespace uberrt::stream
