// Wire-format tests: encode/decode round trips for every message type, defensive decoding of
// malformed input, and digest stability properties.
#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/messages.h"

namespace bft {
namespace {

template <typename T>
T RoundTrip(const T& msg) {
  Bytes wire = EncodeMessage(Message(msg));
  std::optional<Message> decoded = DecodeMessage(wire);
  EXPECT_TRUE(decoded.has_value());
  EXPECT_TRUE(std::holds_alternative<T>(*decoded));
  return std::get<T>(*decoded);
}

RequestMsg SampleRequest() {
  RequestMsg m;
  m.client = 1003;
  m.timestamp = 77;
  m.read_only = true;
  m.designated_replier = 2;
  m.op = ToBytes("operation-payload");
  m.auth = Bytes(32, 0xaa);
  return m;
}

TEST(MessagesTest, RequestRoundTrip) {
  RequestMsg m = SampleRequest();
  RequestMsg out = RoundTrip(m);
  EXPECT_EQ(out.client, m.client);
  EXPECT_EQ(out.timestamp, m.timestamp);
  EXPECT_EQ(out.read_only, m.read_only);
  EXPECT_EQ(out.designated_replier, m.designated_replier);
  EXPECT_EQ(out.op, m.op);
  EXPECT_EQ(out.auth, m.auth);
  EXPECT_EQ(out.RequestDigest(), m.RequestDigest());
}

TEST(MessagesTest, RequestDigestIgnoresAuthAndRouting) {
  RequestMsg a = SampleRequest();
  RequestMsg b = SampleRequest();
  b.auth = Bytes(32, 0xbb);
  b.designated_replier = 9;
  b.read_only = false;
  EXPECT_EQ(a.RequestDigest(), b.RequestDigest());
  b.op.push_back(1);
  EXPECT_NE(a.RequestDigest(), b.RequestDigest());
}

TEST(MessagesTest, RequestDigestIsHashOfClientTimestampAndOp) {
  // Pins the digest's preimage, so the digests carried in pre-prepares stay wire-compatible.
  RequestMsg m = SampleRequest();
  Writer w;
  w.U32(m.client);
  w.U64(m.timestamp);
  w.Var(m.op);
  EXPECT_EQ(m.RequestDigest(), ComputeDigest(w.data()));
}

TEST(MessagesTest, RequestAuthContentCoversDigestNotOp) {
  RequestMsg small = SampleRequest();
  RequestMsg big = SampleRequest();
  big.op = Bytes(4096, 0x5a);
  // MAC over the fixed header plus the request digest: its cost does not grow with the op.
  EXPECT_EQ(small.AuthContent().size(), big.AuthContent().size());
  RequestMsg flipped = big;
  flipped.op[2048] ^= 0x01;
  EXPECT_NE(big.AuthContent(), flipped.AuthContent());
  // Header fields outside the digest are still covered.
  RequestMsg ro = small;
  ro.read_only = !ro.read_only;
  EXPECT_NE(small.AuthContent(), ro.AuthContent());
  RequestMsg routed = small;
  routed.designated_replier = 9;
  EXPECT_NE(small.AuthContent(), routed.AuthContent());
  // The overload for a caller holding the digest yields the same bytes.
  EXPECT_EQ(big.AuthContent(big.RequestDigest()), big.AuthContent());
}

TEST(MessagesTest, ReplyRoundTrip) {
  ReplyMsg m;
  m.view = 3;
  m.timestamp = 55;
  m.client = 1001;
  m.replica = 2;
  m.tentative = true;
  m.has_result = true;
  m.result = ToBytes("result-bytes");
  m.result_digest = ComputeDigest(m.result);
  m.auth = Bytes(8, 0x11);
  ReplyMsg out = RoundTrip(m);
  EXPECT_EQ(out.view, m.view);
  EXPECT_EQ(out.result, m.result);
  EXPECT_EQ(out.result_digest, m.result_digest);
  EXPECT_EQ(out.tentative, m.tentative);
}

TEST(MessagesTest, ReplyAuthContentCoversDigestNotResult) {
  ReplyMsg a;
  a.result = ToBytes("big payload");
  a.result_digest = ComputeDigest(a.result);
  ReplyMsg b = a;
  b.result.clear();
  b.has_result = false;
  // MAC over the header only (digest replies): both forms authenticate identically.
  EXPECT_EQ(a.AuthContent(), b.AuthContent());
}

PrePrepareMsg SamplePrePrepare() {
  PrePrepareMsg m;
  m.view = 2;
  m.seq = 17;
  m.ndet = ToBytes("ndet");
  RequestMsg r1 = SampleRequest();
  RequestMsg r2 = SampleRequest();
  r2.timestamp = 78;
  m.inline_requests = {r1, r2};
  m.separate_digests = {ComputeDigest(ToBytes("big-request"))};
  m.auth = Bytes(32, 0xcc);
  return m;
}

TEST(MessagesTest, PrePrepareRoundTrip) {
  PrePrepareMsg m = SamplePrePrepare();
  PrePrepareMsg out = RoundTrip(m);
  EXPECT_EQ(out.view, m.view);
  EXPECT_EQ(out.seq, m.seq);
  EXPECT_EQ(out.ndet, m.ndet);
  ASSERT_EQ(out.inline_requests.size(), 2u);
  EXPECT_EQ(out.separate_digests, m.separate_digests);
  EXPECT_EQ(out.BatchDigest(), m.BatchDigest());
}

TEST(MessagesTest, BatchDigestIndependentOfViewAndSeq) {
  PrePrepareMsg a = SamplePrePrepare();
  PrePrepareMsg b = SamplePrePrepare();
  b.view = 9;
  b.seq = 99;
  // The same batch re-proposed in a later view keeps its identity.
  EXPECT_EQ(a.BatchDigest(), b.BatchDigest());
}

TEST(MessagesTest, BatchDigestSensitiveToOrderAndNdet) {
  PrePrepareMsg a = SamplePrePrepare();
  PrePrepareMsg b = SamplePrePrepare();
  std::swap(b.inline_requests[0], b.inline_requests[1]);
  EXPECT_NE(a.BatchDigest(), b.BatchDigest());
  PrePrepareMsg c = SamplePrePrepare();
  c.ndet = ToBytes("other");
  EXPECT_NE(a.BatchDigest(), c.BatchDigest());
}

TEST(MessagesTest, PrepareCommitCheckpointRoundTrip) {
  PrepareMsg p;
  p.view = 1;
  p.seq = 2;
  p.batch_digest = ComputeDigest(ToBytes("x"));
  p.replica = 3;
  p.auth = Bytes(32, 1);
  PrepareMsg pout = RoundTrip(p);
  EXPECT_EQ(pout.batch_digest, p.batch_digest);

  CommitMsg c;
  c.view = 1;
  c.seq = 2;
  c.batch_digest = p.batch_digest;
  c.replica = 3;
  CommitMsg cout = RoundTrip(c);
  EXPECT_EQ(cout.seq, 2u);

  CheckpointMsg k;
  k.seq = 128;
  k.state_digest = ComputeDigest(ToBytes("state"));
  k.replica = 1;
  CheckpointMsg kout = RoundTrip(k);
  EXPECT_EQ(kout.state_digest, k.state_digest);
}

TEST(MessagesTest, ViewChangeRoundTrip) {
  ViewChangeMsg m;
  m.view = 5;
  m.h = 8;
  m.checkpoints = {{8, ComputeDigest(ToBytes("c8"))}, {16, ComputeDigest(ToBytes("c16"))}};
  m.p = {{9, ComputeDigest(ToBytes("p9")), 4}, {10, ComputeDigest(ToBytes("p10")), 3}};
  m.q = {{9, {{ComputeDigest(ToBytes("q9a")), 4}, {ComputeDigest(ToBytes("q9b")), 2}}}};
  m.replica = 2;
  m.auth = Bytes(32, 0xee);
  ViewChangeMsg out = RoundTrip(m);
  EXPECT_EQ(out.h, 8u);
  ASSERT_EQ(out.checkpoints.size(), 2u);
  ASSERT_EQ(out.p.size(), 2u);
  EXPECT_EQ(out.p[0].view, 4u);
  ASSERT_EQ(out.q.size(), 1u);
  ASSERT_EQ(out.q[0].dv.size(), 2u);
  EXPECT_EQ(out.MessageDigest(), m.MessageDigest());
}

TEST(MessagesTest, ViewChangeDigestCoversContent) {
  ViewChangeMsg a;
  a.view = 5;
  a.h = 8;
  a.replica = 2;
  ViewChangeMsg b = a;
  EXPECT_EQ(a.MessageDigest(), b.MessageDigest());
  b.h = 9;
  EXPECT_NE(a.MessageDigest(), b.MessageDigest());
}

TEST(MessagesTest, NewViewRoundTrip) {
  NewViewMsg m;
  m.view = 5;
  m.vc_set = {{0, ComputeDigest(ToBytes("vc0"))}, {1, ComputeDigest(ToBytes("vc1"))},
              {2, ComputeDigest(ToBytes("vc2"))}};
  m.min_s = 8;
  m.chkpt_digest = ComputeDigest(ToBytes("chk"));
  m.chosen = {{9, ComputeDigest(ToBytes("b9"))}, {10, Digest{}}};
  BatchPayload payload;
  payload.ndet = ToBytes("nd");
  payload.requests = {SampleRequest()};
  m.payloads = {payload};
  m.auth = Bytes(32, 0x12);
  NewViewMsg out = RoundTrip(m);
  EXPECT_EQ(out.vc_set, m.vc_set);
  EXPECT_EQ(out.min_s, 8u);
  EXPECT_EQ(out.chosen, m.chosen);
  ASSERT_EQ(out.payloads.size(), 1u);
  EXPECT_EQ(out.payloads[0].BatchDigest(), payload.BatchDigest());
}

TEST(MessagesTest, StatusRoundTrip) {
  StatusMsg m;
  m.view = 4;
  m.view_active = false;
  m.last_stable = 8;
  m.last_exec = 12;
  m.prepared_bits = {0xff, 0x01};
  m.committed_bits = {0x0f, 0x00};
  m.has_new_view = true;
  m.vc_have_bits = {0x05};
  m.replica = 3;
  StatusMsg out = RoundTrip(m);
  EXPECT_EQ(out.prepared_bits, m.prepared_bits);
  EXPECT_EQ(out.vc_have_bits, m.vc_have_bits);
  EXPECT_FALSE(out.view_active);
}

TEST(MessagesTest, StateTransferMessagesRoundTrip) {
  FetchMsg f;
  f.level = 2;
  f.index = 7;
  f.last_known = 8;
  f.target = 16;
  f.replier = 1;
  f.replica = 3;
  f.nonce = 42;
  FetchMsg fout = RoundTrip(f);
  EXPECT_EQ(fout.nonce, 42u);

  MetaDataMsg md;
  md.target = 16;
  md.level = 1;
  md.index = 3;
  md.parts = {{12, 8, ComputeDigest(ToBytes("p12"))}, {13, 16, ComputeDigest(ToBytes("p13"))}};
  md.extra = ToBytes("extra-blob");
  md.replica = 1;
  md.nonce = 42;
  MetaDataMsg mout = RoundTrip(md);
  ASSERT_EQ(mout.parts.size(), 2u);
  EXPECT_EQ(mout.parts[1].lm, 16u);
  EXPECT_EQ(mout.extra, md.extra);

  DataMsg d;
  d.index = 12;
  d.lm = 8;
  d.value = Bytes(4096, 0x7e);
  DataMsg dout = RoundTrip(d);
  EXPECT_EQ(dout.value, d.value);
}

TEST(MessagesTest, KeyAndRecoveryMessagesRoundTrip) {
  NewKeyMsg nk;
  nk.replica = 2;
  nk.epoch = 9;
  nk.counter = 1234;
  nk.auth = Bytes(128, 3);
  NewKeyMsg nkout = RoundTrip(nk);
  EXPECT_EQ(nkout.epoch, 9u);
  EXPECT_EQ(nkout.counter, 1234u);

  QueryStableMsg q;
  q.replica = 1;
  q.nonce = 5;
  EXPECT_EQ(RoundTrip(q).nonce, 5u);

  ReplyStableMsg rs;
  rs.last_checkpoint = 32;
  rs.last_prepared = 40;
  rs.nonce = 5;
  rs.replica = 0;
  ReplyStableMsg rsout = RoundTrip(rs);
  EXPECT_EQ(rsout.last_checkpoint, 32u);
  EXPECT_EQ(rsout.last_prepared, 40u);
}

TEST(MessagesTest, BatchFetchRoundTrip) {
  BatchFetchMsg bf;
  bf.batch_digest = ComputeDigest(ToBytes("batch"));
  bf.replica = 2;
  EXPECT_EQ(RoundTrip(bf).batch_digest, bf.batch_digest);

  BatchReplyMsg br;
  br.payload.ndet = ToBytes("n");
  br.payload.requests = {SampleRequest()};
  br.replica = 1;
  BatchReplyMsg brout = RoundTrip(br);
  EXPECT_EQ(brout.payload.BatchDigest(), br.payload.BatchDigest());
}

// --- Defensive decoding --------------------------------------------------------------------------

TEST(MessagesTest, EmptyAndGarbageInputRejected) {
  EXPECT_FALSE(DecodeMessage(Bytes{}).has_value());
  EXPECT_FALSE(DecodeMessage(Bytes{0}).has_value());
  EXPECT_FALSE(DecodeMessage(Bytes{99, 1, 2, 3}).has_value());
}

TEST(MessagesTest, TruncatedMessagesRejected) {
  Bytes wire = EncodeMessage(Message(SamplePrePrepare()));
  for (size_t cut = 1; cut < wire.size(); cut += 7) {
    Bytes truncated(wire.begin(), wire.begin() + static_cast<long>(cut));
    EXPECT_FALSE(DecodeMessage(truncated).has_value()) << "cut=" << cut;
  }
}

TEST(MessagesTest, TrailingBytesRejected) {
  Bytes wire = EncodeMessage(Message(SampleRequest()));
  wire.push_back(0);
  EXPECT_FALSE(DecodeMessage(wire).has_value());
}

TEST(MessagesTest, HugeLengthFieldRejectedWithoutAllocation) {
  // Craft a request whose op length claims 0xffffffff bytes.
  Writer w;
  w.U8(1);  // kRequest
  w.U32(1001);
  w.U64(1);
  w.Bool(false);
  w.U32(0);
  w.U32(0xffffffff);  // op length: enormous
  Bytes wire = w.Take();
  EXPECT_FALSE(DecodeMessage(wire).has_value());
}

TEST(MessagesTest, RandomBytesNeverCrashDecoder) {
  Rng rng(123);
  for (int i = 0; i < 2000; ++i) {
    Bytes junk = rng.RandomBytes(rng.Below(300));
    DecodeMessage(junk);  // must not crash; result irrelevant
  }
}

TEST(MessagesTest, BitFlippedEncodingsNeverCrashDecoder) {
  Bytes wire = EncodeMessage(Message(SamplePrePrepare()));
  Rng rng(321);
  for (int i = 0; i < 2000; ++i) {
    Bytes mutated = wire;
    mutated[rng.Below(mutated.size())] ^= static_cast<uint8_t>(1 + rng.Below(255));
    DecodeMessage(mutated);  // must not crash
  }
}

}  // namespace
}  // namespace bft
