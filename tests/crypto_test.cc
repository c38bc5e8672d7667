// Tests for the crypto substrate: SHA-256 vectors, HMAC, digests, MACs, signatures, AdHash.
#include <gtest/gtest.h>

#include "src/common/bytes.h"
#include "src/common/rng.h"
#include "src/common/serializer.h"
#include "src/crypto/adhash.h"
#include "src/crypto/digest.h"
#include "src/crypto/hmac.h"
#include "src/crypto/mac.h"
#include "src/crypto/sha256.h"
#include "src/crypto/signature.h"

namespace bft {
namespace {

std::string Sha256Hex(std::string_view input) {
  Sha256::DigestBytes d = Sha256::Hash(ToBytes(input));
  return HexEncode(ByteView(d.data(), d.size()));
}

TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(Sha256Hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(Sha256Hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(Sha256Hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 h;
  Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    h.Update(chunk);
  }
  Sha256::DigestBytes d = h.Finish();
  EXPECT_EQ(HexEncode(ByteView(d.data(), d.size())),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, StreamingMatchesOneShot) {
  Rng rng(7);
  for (size_t len : {0u, 1u, 63u, 64u, 65u, 127u, 128u, 1000u, 4096u}) {
    Bytes data = rng.RandomBytes(len);
    Sha256 h;
    size_t offset = 0;
    size_t step = 1;
    while (offset < data.size()) {
      size_t take = std::min(step, data.size() - offset);
      h.Update(ByteView(data.data() + offset, take));
      offset += take;
      step = step * 2 + 1;
    }
    EXPECT_EQ(h.Finish(), Sha256::Hash(data)) << "len=" << len;
  }
}

TEST(HmacTest, Rfc4231Case1) {
  Bytes key(20, 0x0b);
  Sha256::DigestBytes mac = HmacSha256(key, ToBytes("Hi There"));
  EXPECT_EQ(HexEncode(ByteView(mac.data(), mac.size())),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  Sha256::DigestBytes mac =
      HmacSha256(ToBytes("Jefe"), ToBytes("what do ya want for nothing?"));
  EXPECT_EQ(HexEncode(ByteView(mac.data(), mac.size())),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, LongKeyIsHashed) {
  Bytes key(131, 0xaa);
  Sha256::DigestBytes mac = HmacSha256(
      key, ToBytes("Test Using Larger Than Block-Size Key - Hash Key First"));
  EXPECT_EQ(HexEncode(ByteView(mac.data(), mac.size())),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacTest, Rfc4231Case7LongKeyLongData) {
  // 152-byte message: the one RFC 4231 vector whose message exceeds a single padded block,
  // pinning the streaming (>55-byte) HMAC branch to an independent known answer.
  Bytes key(131, 0xaa);
  Sha256::DigestBytes mac = HmacSha256(
      key,
      ToBytes("This is a test using a larger than block-size key and a larger than "
              "block-size data. The key needs to be hashed before being used by the HMAC "
              "algorithm."));
  EXPECT_EQ(HexEncode(ByteView(mac.data(), mac.size())),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2");
}

TEST(DigestTest, DeterministicAndDistinct) {
  Digest a = ComputeDigest(ToBytes("hello"));
  Digest b = ComputeDigest(ToBytes("hello"));
  Digest c = ComputeDigest(ToBytes("world"));
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_FALSE(a.IsZero());
  EXPECT_TRUE(Digest{}.IsZero());
}

TEST(DigestTest, PartsAreLengthDelimited) {
  // ("a", "bc") must differ from ("ab", "c").
  Digest d1 = ComputeDigestParts({ToBytes("a"), ToBytes("bc")});
  Digest d2 = ComputeDigestParts({ToBytes("ab"), ToBytes("c")});
  EXPECT_NE(d1, d2);
}

TEST(DigestTest, PartsHashTheLengthPrefixedConcatenation) {
  // The preimage is each part as Writer::Var writes it (U32 little-endian length, then the
  // bytes); page and checkpoint digests depend on it.
  auto expect_same = [](std::initializer_list<ByteView> parts) {
    Writer w;
    for (ByteView p : parts) {
      w.Var(p);
    }
    EXPECT_EQ(ComputeDigestParts(parts), ComputeDigest(w.data())) << parts.size() << " parts";
  };
  Rng rng(9);
  Bytes page = rng.RandomBytes(4096);
  Bytes empty;
  expect_same({});
  expect_same({empty});
  expect_same({ToBytes("a"), empty, ToBytes("bc")});
  expect_same({ToBytes("header"), page});
  expect_same({page, page});
}

TEST(MacTest, VerifiesAndRejectsTamper) {
  Rng rng(3);
  Bytes key = rng.RandomBytes(kSessionKeySize);
  Bytes msg = rng.RandomBytes(64);
  MacTag tag = ComputeMac(key, msg);
  EXPECT_TRUE(MacEqual(tag, ComputeMac(key, msg)));

  Bytes tampered = msg;
  tampered[10] ^= 1;
  EXPECT_FALSE(MacEqual(tag, ComputeMac(key, tampered)));

  Bytes other_key = rng.RandomBytes(kSessionKeySize);
  EXPECT_FALSE(MacEqual(tag, ComputeMac(other_key, msg)));
}

TEST(SignatureTest, SignAndVerify) {
  PublicKeyDirectory dir;
  auto key5 = dir.Generate(5, 1);
  auto key6 = dir.Generate(6, 2);

  Bytes msg = ToBytes("attack at dawn");
  Signature sig = key5->Sign(msg);
  EXPECT_EQ(sig.bytes.size(), Signature::kSize);
  EXPECT_TRUE(dir.Verify(5, msg, sig));
  EXPECT_FALSE(dir.Verify(6, msg, sig));          // wrong principal
  EXPECT_FALSE(dir.Verify(5, ToBytes("x"), sig));  // wrong message
  EXPECT_FALSE(dir.Verify(7, msg, sig));           // unknown principal

  Signature forged = key6->Sign(msg);
  EXPECT_FALSE(dir.Verify(5, msg, forged));
}

TEST(AdHashTest, OrderIndependent) {
  Digest a = ComputeDigest(ToBytes("a"));
  Digest b = ComputeDigest(ToBytes("b"));
  Digest c = ComputeDigest(ToBytes("c"));

  AdHash h1;
  h1.Add(a);
  h1.Add(b);
  h1.Add(c);
  AdHash h2;
  h2.Add(c);
  h2.Add(a);
  h2.Add(b);
  EXPECT_EQ(h1.Value(), h2.Value());
}

TEST(AdHashTest, IncrementalReplaceMatchesRecompute) {
  Rng rng(9);
  std::vector<Digest> items;
  AdHash running;
  for (int i = 0; i < 100; ++i) {
    items.push_back(ComputeDigest(rng.RandomBytes(16)));
    running.Add(items.back());
  }
  // Replace random items and compare with a from-scratch sum.
  for (int round = 0; round < 50; ++round) {
    size_t idx = rng.Below(items.size());
    Digest fresh = ComputeDigest(rng.RandomBytes(16));
    running.Replace(items[idx], fresh);
    items[idx] = fresh;
  }
  AdHash scratch;
  for (const Digest& d : items) {
    scratch.Add(d);
  }
  EXPECT_EQ(running.Value(), scratch.Value());
}

TEST(AdHashTest, RemoveUndoesAdd) {
  Digest a = ComputeDigest(ToBytes("a"));
  Digest b = ComputeDigest(ToBytes("b"));
  AdHash h;
  h.Add(a);
  Digest before = h.Value();
  h.Add(b);
  h.Remove(b);
  EXPECT_EQ(h.Value(), before);
}

TEST(HexTest, RoundTrip) {
  Rng rng(11);
  Bytes data = rng.RandomBytes(33);
  EXPECT_EQ(HexDecode(HexEncode(data)), data);
  EXPECT_TRUE(HexDecode("xyz").empty());
  EXPECT_TRUE(HexDecode("abc").empty());  // odd length
}

}  // namespace
}  // namespace bft
