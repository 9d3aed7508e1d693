#include <gtest/gtest.h>

#include <string>

#include "common/fault_injector.h"
#include "compute/checkpoint.h"
#include "storage/object_store.h"

namespace uberrt::compute {
namespace {

CheckpointData SampleData() {
  CheckpointData data;
  data.sequence = 7;
  data.entries["source.0.0"] = "42";
  data.entries["op.0.0"] = std::string("\x00\x01\x02", 3);
  return data;
}

TEST(CheckpointDataTest, EncodeDecodeRoundtrip) {
  CheckpointData data = SampleData();
  Result<CheckpointData> decoded = CheckpointData::Decode(data.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().sequence, 7);
  EXPECT_EQ(decoded.value().entries, data.entries);
}

TEST(CheckpointDataTest, TruncatedBlobsAreCorruptionNotCrash) {
  std::string blob = SampleData().Encode();
  // Every possible truncation point must decode to an error, never throw or
  // read out of bounds.
  for (size_t len = 0; len < blob.size(); ++len) {
    Result<CheckpointData> decoded = CheckpointData::Decode(blob.substr(0, len));
    EXPECT_FALSE(decoded.ok()) << "truncated at " << len;
    EXPECT_TRUE(decoded.status().IsCorruption()) << "truncated at " << len;
  }
}

TEST(CheckpointDataTest, GarbageHeaderFieldsAreCorruption) {
  // Hand-build a blob whose length-prefixed header fields hold non-numeric
  // text where the decoder expects decimal sequence/count.
  auto field = [](const std::string& s) {
    uint32_t len = static_cast<uint32_t>(s.size());
    std::string out(reinterpret_cast<const char*>(&len), 4);
    return out + s;
  };
  Result<CheckpointData> bad_seq = CheckpointData::Decode(field("abc") + field("0"));
  EXPECT_TRUE(bad_seq.status().IsCorruption());
  Result<CheckpointData> bad_count = CheckpointData::Decode(field("1") + field("xyz"));
  EXPECT_TRUE(bad_count.status().IsCorruption());
  Result<CheckpointData> neg_count = CheckpointData::Decode(field("1") + field("-4"));
  EXPECT_TRUE(neg_count.status().IsCorruption());
  // Overflowing digits must not wrap.
  Result<CheckpointData> huge =
      CheckpointData::Decode(field("999999999999999999999999") + field("0"));
  EXPECT_TRUE(huge.status().IsCorruption());
}

TEST(CheckpointDataTest, HugeEntryCountRejectedWithoutAllocating) {
  auto field = [](const std::string& s) {
    uint32_t len = static_cast<uint32_t>(s.size());
    std::string out(reinterpret_cast<const char*>(&len), 4);
    return out + s;
  };
  // Claims 4 billion entries in a blob with room for none.
  Result<CheckpointData> decoded =
      CheckpointData::Decode(field("1") + field("4000000000"));
  EXPECT_TRUE(decoded.status().IsCorruption());
}

TEST(CheckpointDataTest, RandomBytesNeverCrash) {
  // Deterministic pseudo-random garbage of varying length.
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (int round = 0; round < 64; ++round) {
    std::string blob;
    for (int i = 0; i < round * 3; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      blob.push_back(static_cast<char>(x & 0xff));
    }
    CheckpointData::Decode(blob).ok();  // must simply not crash
  }
}

TEST(CheckpointStoreTest, SaveLoadLatestRoundtrip) {
  storage::InMemoryObjectStore store;
  CheckpointStore checkpoints(&store, "checkpoints", "job1");
  EXPECT_TRUE(checkpoints.LoadLatest().status().IsNotFound());
  ASSERT_TRUE(checkpoints.Save(SampleData()).ok());
  Result<CheckpointData> loaded = checkpoints.LoadLatest();
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().sequence, 7);
}

TEST(CheckpointStoreTest, LatestPointingAtDeletedCheckpointIsNotFound) {
  storage::InMemoryObjectStore store;
  CheckpointStore checkpoints(&store, "checkpoints", "job1");
  ASSERT_TRUE(checkpoints.Save(SampleData()).ok());
  // Simulate a half-completed cleanup: the checkpoint object is gone but
  // LATEST still names it.
  ASSERT_TRUE(store.Delete("checkpoints/job1/chk-7").ok());
  Result<CheckpointData> loaded = checkpoints.LoadLatest();
  EXPECT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsNotFound());
}

TEST(CheckpointStoreTest, CorruptLatestPointerIsCorruption) {
  storage::InMemoryObjectStore store;
  CheckpointStore checkpoints(&store, "checkpoints", "job1");
  ASSERT_TRUE(store.Put("checkpoints/job1/LATEST", "not-a-number").ok());
  EXPECT_TRUE(checkpoints.LoadLatest().status().IsCorruption());
  EXPECT_TRUE(checkpoints.LatestSequence().status().IsCorruption());
}

TEST(CheckpointStoreTest, CorruptCheckpointBlobSurfacesCorruption) {
  storage::InMemoryObjectStore store;
  CheckpointStore checkpoints(&store, "checkpoints", "job1");
  ASSERT_TRUE(checkpoints.Save(SampleData()).ok());
  ASSERT_TRUE(store.Put("checkpoints/job1/chk-7", "shredded").ok());
  EXPECT_TRUE(checkpoints.LoadLatest().status().IsCorruption());
}

CheckpointData Numbered(int64_t sequence, const std::string& offset) {
  CheckpointData data;
  data.sequence = sequence;
  data.entries["source.0.0"] = offset;
  return data;
}

TEST(CheckpointStoreTest, RetainsOnlyTheNewestTwoCheckpoints) {
  storage::InMemoryObjectStore store;
  CheckpointStore checkpoints(&store, "checkpoints", "job1");
  for (int64_t seq = 1; seq <= 10; ++seq) {
    ASSERT_TRUE(checkpoints.Save(Numbered(seq, std::to_string(seq * 100))).ok());
  }
  EXPECT_EQ(store.List("checkpoints/job1/chk-"),
            (std::vector<std::string>{"checkpoints/job1/chk-10", "checkpoints/job1/chk-9"}));
  Result<CheckpointData> latest = checkpoints.LoadLatest();
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  EXPECT_EQ(latest.value().sequence, 10);
  EXPECT_EQ(latest.value().entries.at("source.0.0"), "1000");

  // A rescale rewrites state through a second store handle: first the same
  // sequence again, then the next one (as JobManager does). Both restore.
  CheckpointStore rescale(&store, "checkpoints", "job1");
  ASSERT_TRUE(rescale.Save(Numbered(10, "rebucketed")).ok());
  EXPECT_EQ(store.List("checkpoints/job1/chk-").size(), 2u);
  ASSERT_TRUE(checkpoints.LoadLatest().ok());
  EXPECT_EQ(checkpoints.LoadLatest().value().entries.at("source.0.0"), "rebucketed");
  ASSERT_TRUE(rescale.Save(Numbered(11, "rescaled")).ok());
  EXPECT_EQ(store.List("checkpoints/job1/chk-"),
            (std::vector<std::string>{"checkpoints/job1/chk-10", "checkpoints/job1/chk-11"}));
  Result<CheckpointData> restored = checkpoints.LoadLatest();
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value().sequence, 11);
  EXPECT_EQ(restored.value().entries.at("source.0.0"), "rescaled");
  // Another job's checkpoints are never touched.
  CheckpointStore other(&store, "checkpoints", "job10");
  ASSERT_TRUE(other.Save(Numbered(1, "x")).ok());
  ASSERT_TRUE(checkpoints.Save(Numbered(12, "y")).ok());
  EXPECT_TRUE(store.Exists("checkpoints/job10/chk-1"));
}

TEST(CheckpointStoreTest, FailedRetentionDeleteIsRetriedOnTheNextSave) {
  common::FaultInjector faults;
  storage::InMemoryObjectStore store;
  store.SetFaultInjector(&faults);
  CheckpointStore checkpoints(&store, "checkpoints", "job1");
  common::FaultRule down;
  down.down = true;
  faults.SetRule("store.delete", down);
  for (int64_t seq = 1; seq <= 4; ++seq) {
    ASSERT_TRUE(checkpoints.Save(Numbered(seq, "o")).ok());  // deletes fail quietly
  }
  EXPECT_EQ(store.List("checkpoints/job1/chk-").size(), 4u);
  faults.ClearRule("store.delete");
  ASSERT_TRUE(checkpoints.Save(Numbered(5, "o")).ok());
  EXPECT_EQ(store.List("checkpoints/job1/chk-"),
            (std::vector<std::string>{"checkpoints/job1/chk-4", "checkpoints/job1/chk-5"}));
}

}  // namespace
}  // namespace uberrt::compute
