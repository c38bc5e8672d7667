// Unit tests for the little-endian Writer/Reader pair underpinning every wire format.
#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/common/serializer.h"

namespace bft {
namespace {

TEST(SerializerTest, ScalarRoundTrips) {
  Writer w;
  w.U8(0xab);
  w.U16(0xbeef);
  w.U32(0xdeadbeef);
  w.U64(0x0123456789abcdefULL);
  w.I64(-42);
  w.Bool(true);
  w.Bool(false);

  Reader r(w.data());
  EXPECT_EQ(r.U8(), 0xab);
  EXPECT_EQ(r.U16(), 0xbeef);
  EXPECT_EQ(r.U32(), 0xdeadbeefu);
  EXPECT_EQ(r.U64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.I64(), -42);
  EXPECT_TRUE(r.Bool());
  EXPECT_FALSE(r.Bool());
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerializerTest, LittleEndianLayout) {
  Writer w;
  w.U32(0x01020304);
  EXPECT_EQ(w.data()[0], 0x04);
  EXPECT_EQ(w.data()[3], 0x01);
}

TEST(SerializerTest, VarAndStrRoundTrip) {
  Writer w;
  w.Var(ToBytes("payload"));
  w.Str("name");
  w.Var({});  // empty var

  Reader r(w.data());
  EXPECT_EQ(ToString(r.Var()), "payload");
  EXPECT_EQ(r.Str(), "name");
  EXPECT_TRUE(r.Var().empty());
  EXPECT_TRUE(r.ok());
}

TEST(SerializerTest, ReadPastEndSetsNotOkAndReturnsZero) {
  Writer w;
  w.U16(7);
  Reader r(w.data());
  EXPECT_EQ(r.U16(), 7);
  EXPECT_EQ(r.U32(), 0u);  // past end
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.U64(), 0u);  // stays failed
}

TEST(SerializerTest, TruncatedVarFailsWithoutHugeAllocation) {
  Writer w;
  w.U32(1000);  // claims 1000 bytes...
  w.Raw(Bytes(3, 1));  // ...but only 3 present
  Reader r(w.data());
  EXPECT_TRUE(r.Var().empty());
  EXPECT_FALSE(r.ok());
}

TEST(SerializerTest, CountAboveRemainingBytesFails) {
  Writer w;
  w.U32(3);  // three elements, each at least one byte...
  w.Raw(Bytes(3, 1));
  w.U32(4);  // ...but only three bytes follow this one
  w.Raw(Bytes(3, 1));
  Reader r(w.data());
  EXPECT_EQ(r.Count(), 3u);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.Raw(3), Bytes(3, 1));
  EXPECT_EQ(r.Count(), 0u);
  EXPECT_FALSE(r.ok());
}

TEST(SerializerTest, PatchU32RewritesInPlace) {
  Writer w;
  w.U8(1);
  size_t offset = w.size();
  w.U32(0);  // placeholder
  w.Str("tail");
  w.PatchU32(offset, 0xcafebabe);
  Reader r(w.data());
  r.U8();
  EXPECT_EQ(r.U32(), 0xcafebabe);
}

TEST(SerializerTest, RandomizedRoundTripProperty) {
  Rng rng(77);
  for (int round = 0; round < 200; ++round) {
    Writer w;
    std::vector<uint64_t> values;
    std::vector<int> kinds;
    int fields = 1 + static_cast<int>(rng.Below(20));
    for (int i = 0; i < fields; ++i) {
      int kind = static_cast<int>(rng.Below(4));
      uint64_t v = rng.Next();
      kinds.push_back(kind);
      values.push_back(v);
      switch (kind) {
        case 0:
          w.U8(static_cast<uint8_t>(v));
          break;
        case 1:
          w.U32(static_cast<uint32_t>(v));
          break;
        case 2:
          w.U64(v);
          break;
        case 3:
          w.Var(rng.RandomBytes(v % 64));
          break;
      }
    }
    Reader r(w.data());
    for (int i = 0; i < fields; ++i) {
      switch (kinds[static_cast<size_t>(i)]) {
        case 0:
          EXPECT_EQ(r.U8(), static_cast<uint8_t>(values[static_cast<size_t>(i)]));
          break;
        case 1:
          EXPECT_EQ(r.U32(), static_cast<uint32_t>(values[static_cast<size_t>(i)]));
          break;
        case 2:
          EXPECT_EQ(r.U64(), values[static_cast<size_t>(i)]);
          break;
        case 3:
          EXPECT_EQ(r.Var().size(), values[static_cast<size_t>(i)] % 64);
          break;
      }
    }
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.AtEnd());
  }
}

TEST(RngTest, DeterministicAndForkIndependent) {
  Rng a(5);
  Rng b(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
  Rng parent(9);
  Rng child1 = parent.Fork();
  Rng child2 = parent.Fork();
  EXPECT_NE(child1.Next(), child2.Next());
}

TEST(RngTest, BelowAndRangeBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Below(7), 7u);
    uint64_t v = rng.Range(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
    double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

}  // namespace
}  // namespace bft
