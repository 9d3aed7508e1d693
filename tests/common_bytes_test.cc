// Pins the byte order of every common/bytes.h primitive against literal
// byte strings (a durable format can then never flip order silently) and
// checks that the bounds-checked reader fails without moving at every cut
// of a mixed record.

#include "common/bytes.h"

#include <gtest/gtest.h>

#include <string>

namespace uberrt::bytes {
namespace {

std::string Bytes(std::initializer_list<int> list) {
  std::string out;
  for (int b : list) out.push_back(static_cast<char>(b));
  return out;
}

TEST(BytesTest, AppendersPinByteOrder) {
  std::string out;
  PutLE32(&out, 0x01020304u);
  EXPECT_EQ(out, Bytes({0x04, 0x03, 0x02, 0x01}));
  out.clear();
  PutLE64(&out, 0x0102030405060708ull);
  EXPECT_EQ(out, Bytes({0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01}));
  out.clear();
  PutBE32(&out, 0x01020304u);
  EXPECT_EQ(out, Bytes({0x01, 0x02, 0x03, 0x04}));
  out.clear();
  PutBE64(&out, 0x0102030405060708ull);
  EXPECT_EQ(out, Bytes({0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08}));
  out.clear();
  PutString(&out, "ab");
  EXPECT_EQ(out, Bytes({0x02, 0x00, 0x00, 0x00, 'a', 'b'}));
  out.clear();
  PutString(&out, "");
  EXPECT_EQ(out, Bytes({0x00, 0x00, 0x00, 0x00}));
}

TEST(BytesTest, StoresPatchInPlace) {
  std::string buf(12, '\xee');
  StoreBE32(&buf[1], 0xA1B2C3D4u);
  EXPECT_EQ(buf.substr(0, 6), Bytes({0xee, 0xA1, 0xB2, 0xC3, 0xD4, 0xee}));
  StoreBE64(&buf[2], 0x0102030405060708ull);
  EXPECT_EQ(buf, Bytes({0xee, 0xA1, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08,
                        0xee, 0xee}));
}

TEST(BytesTest, LoadsPinByteOrder) {
  const std::string b = Bytes({0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0xF8});
  EXPECT_EQ(LoadLE32(b.data()), 0x04030201u);
  EXPECT_EQ(LoadBE32(b.data()), 0x01020304u);
  EXPECT_EQ(LoadLE64(b.data()), 0xF807060504030201ull);
  EXPECT_EQ(LoadBE64(b.data()), 0x01020304050607F8ull);
}

TEST(BytesTest, ReaderDecodesLittleEndianFields) {
  const std::string b = Bytes({0x7F, 0x04, 0x03, 0x02, 0x01, 0x08, 0x07, 0x06, 0x05,
                               0x04, 0x03, 0x02, 0x01, 0x03, 0x00, 0x00, 0x00, 'x',
                               'y', 'z'});
  ByteReader r(b);
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  std::string_view s;
  ASSERT_TRUE(r.U8(&u8));
  ASSERT_TRUE(r.U32(&u32));
  ASSERT_TRUE(r.U64(&u64));
  ASSERT_TRUE(r.String(&s));
  EXPECT_EQ(u8, 0x7F);
  EXPECT_EQ(u32, 0x01020304u);
  EXPECT_EQ(u64, 0x0102030405060708ull);
  EXPECT_EQ(s, "xyz");
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_EQ(r.pos(), b.size());
}

TEST(BytesTest, ReaderFailsWithoutAdvancingAtEveryCut) {
  // A mixed record: u8, u32, string, u64, skipped pad, string.
  std::string record;
  record.push_back('\x05');
  PutLE32(&record, 77);
  PutString(&record, "hello");
  PutLE64(&record, 1ull << 40);
  record.append(3, '\0');
  PutString(&record, "!");

  auto read_all = [](ByteReader* r) -> bool {
    uint8_t u8 = 0;
    uint32_t u32 = 0;
    uint64_t u64 = 0;
    std::string s1, s2;
    return r->U8(&u8) && r->U32(&u32) && r->String(&s1) && r->U64(&u64) &&
           r->Skip(3) && r->String(&s2);
  };
  {
    ByteReader whole(record);
    ASSERT_TRUE(read_all(&whole));
    EXPECT_EQ(whole.remaining(), 0u);
  }
  // Field boundaries of the record, in order.
  const size_t bounds[] = {0, 1, 5, 14, 22, 25, record.size()};
  for (size_t cut = 0; cut < record.size(); ++cut) {
    ByteReader r(std::string_view(record).substr(0, cut));
    EXPECT_FALSE(read_all(&r)) << "cut " << cut;
    // The cursor stops at the last field boundary that fits: the failing
    // read consumed nothing.
    size_t expect = 0;
    for (size_t b : bounds) {
      if (b <= cut) expect = b;
    }
    EXPECT_EQ(r.pos(), expect) << "cut " << cut;
  }
}

TEST(BytesTest, HostileStringLengthFailsWithoutAdvancing) {
  std::string b = Bytes({0xFF, 0xFF, 0xFF, 0xFF, 'a'});
  ByteReader r(b);
  std::string_view s;
  EXPECT_FALSE(r.String(&s));
  EXPECT_EQ(r.pos(), 0u);
  EXPECT_FALSE(r.Skip(6));
  EXPECT_EQ(r.pos(), 0u);
  EXPECT_TRUE(r.Skip(5));
  uint8_t u8 = 0;
  EXPECT_FALSE(r.U8(&u8));
  EXPECT_EQ(r.pos(), 5u);
}

}  // namespace
}  // namespace uberrt::bytes
