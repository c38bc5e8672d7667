// Wire-format tests: encode/decode round trips for every message type, the exact wire bytes,
// defensive decoding of malformed input, and digest stability properties.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "src/common/rng.h"
#include "src/core/auth.h"
#include "src/core/messages.h"

// Counting allocator for this test binary: while `g_count_allocs` is set, the number of
// allocations and the largest single one are recorded, so a test can bound what a decoder
// allocates for a given input and pin the paths that allocate nothing.
namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<size_t> g_largest_alloc{0};
std::atomic<size_t> g_alloc_calls{0};
}  // namespace

void* operator new(size_t n) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
    size_t prev = g_largest_alloc.load(std::memory_order_relaxed);
    while (n > prev && !g_largest_alloc.compare_exchange_weak(prev, n)) {
    }
  }
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}
// Out of line: inlined into a new-expression, GCC flags the malloc/free pair as mismatched.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, size_t) noexcept { std::free(p); }

namespace bft {
namespace {

// Heap allocations made by `fn`.
template <typename Fn>
size_t AllocationsIn(Fn&& fn) {
  g_alloc_calls = 0;
  g_count_allocs = true;
  fn();
  g_count_allocs = false;
  return g_alloc_calls.load();
}

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
  Bytes longer = b.op.Copy();  // a request's op is immutable: rebuild it
  longer.push_back(1);
  b.op = longer;
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
  Bytes flipped_op = big.op.Copy();  // a request's op is immutable: rebuild it
  flipped_op[2048] ^= 0x01;
  flipped.op = flipped_op;
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

ReplyMsg SampleReply() {
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
  return m;
}

TEST(MessagesTest, ReplyRoundTrip) {
  ReplyMsg m = SampleReply();
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

PrepareMsg SamplePrepare() {
  PrepareMsg p;
  p.view = 1;
  p.seq = 2;
  p.batch_digest = ComputeDigest(ToBytes("x"));
  p.replica = 3;
  p.auth = Bytes(32, 1);
  return p;
}

CommitMsg SampleCommit() {
  CommitMsg c;
  c.view = 1;
  c.seq = 2;
  c.batch_digest = ComputeDigest(ToBytes("x"));
  c.replica = 3;
  return c;
}

CheckpointMsg SampleCheckpoint() {
  CheckpointMsg k;
  k.seq = 128;
  k.state_digest = ComputeDigest(ToBytes("state"));
  k.replica = 1;
  return k;
}

TEST(MessagesTest, PrepareCommitCheckpointRoundTrip) {
  PrepareMsg p = SamplePrepare();
  PrepareMsg pout = RoundTrip(p);
  EXPECT_EQ(pout.batch_digest, p.batch_digest);

  CommitMsg c = SampleCommit();
  CommitMsg cout = RoundTrip(c);
  EXPECT_EQ(cout.seq, 2u);

  CheckpointMsg k = SampleCheckpoint();
  CheckpointMsg kout = RoundTrip(k);
  EXPECT_EQ(kout.state_digest, k.state_digest);
}

ViewChangeMsg SampleViewChange() {
  ViewChangeMsg m;
  m.view = 5;
  m.h = 8;
  m.checkpoints = {{8, ComputeDigest(ToBytes("c8"))}, {16, ComputeDigest(ToBytes("c16"))}};
  m.p = {{9, ComputeDigest(ToBytes("p9")), 4}, {10, ComputeDigest(ToBytes("p10")), 3}};
  m.q = {{9, {{ComputeDigest(ToBytes("q9a")), 4}, {ComputeDigest(ToBytes("q9b")), 2}}}};
  m.replica = 2;
  m.auth = Bytes(32, 0xee);
  return m;
}

TEST(MessagesTest, ViewChangeRoundTrip) {
  ViewChangeMsg m = SampleViewChange();
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

ViewChangeAckMsg SampleViewChangeAck() {
  ViewChangeAckMsg m;
  m.view = 5;
  m.replica = 1;
  m.vc_sender = 2;
  m.vc_digest = ComputeDigest(ToBytes("vc2"));
  m.auth = Bytes(16, 0x21);
  return m;
}

TEST(MessagesTest, ViewChangeAckRoundTrip) {
  ViewChangeAckMsg m = SampleViewChangeAck();
  ViewChangeAckMsg out = RoundTrip(m);
  EXPECT_EQ(out.view, m.view);
  EXPECT_EQ(out.replica, m.replica);
  EXPECT_EQ(out.vc_sender, m.vc_sender);
  EXPECT_EQ(out.vc_digest, m.vc_digest);
  EXPECT_EQ(out.auth, m.auth);
}

NewViewMsg SampleNewView() {
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
  return m;
}

TEST(MessagesTest, NewViewRoundTrip) {
  NewViewMsg m = SampleNewView();
  NewViewMsg out = RoundTrip(m);
  EXPECT_EQ(out.vc_set, m.vc_set);
  EXPECT_EQ(out.min_s, 8u);
  EXPECT_EQ(out.chosen, m.chosen);
  ASSERT_EQ(out.payloads.size(), 1u);
  EXPECT_EQ(out.payloads[0].BatchDigest(), m.payloads[0].BatchDigest());
}

StatusMsg SampleStatus() {
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
  return m;
}

TEST(MessagesTest, StatusRoundTrip) {
  StatusMsg m = SampleStatus();
  StatusMsg out = RoundTrip(m);
  EXPECT_EQ(out.prepared_bits, m.prepared_bits);
  EXPECT_EQ(out.vc_have_bits, m.vc_have_bits);
  EXPECT_FALSE(out.view_active);
}

FetchMsg SampleFetch() {
  FetchMsg f;
  f.level = 2;
  f.index = 7;
  f.last_known = 8;
  f.target = 16;
  f.replier = 1;
  f.replica = 3;
  f.nonce = 42;
  return f;
}

MetaDataMsg SampleMetaData() {
  MetaDataMsg md;
  md.target = 16;
  md.level = 1;
  md.index = 3;
  md.parts = {{12, 8, ComputeDigest(ToBytes("p12"))}, {13, 16, ComputeDigest(ToBytes("p13"))}};
  md.extra = ToBytes("extra-blob");
  md.replica = 1;
  md.nonce = 42;
  return md;
}

DataMsg SampleData() {
  DataMsg d;
  d.index = 12;
  d.lm = 8;
  d.value = Bytes(4096, 0x7e);
  return d;
}

TEST(MessagesTest, StateTransferMessagesRoundTrip) {
  FetchMsg f = SampleFetch();
  FetchMsg fout = RoundTrip(f);
  EXPECT_EQ(fout.nonce, 42u);

  MetaDataMsg md = SampleMetaData();
  MetaDataMsg mout = RoundTrip(md);
  ASSERT_EQ(mout.parts.size(), 2u);
  EXPECT_EQ(mout.parts[1].lm, 16u);
  EXPECT_EQ(mout.extra, md.extra);

  DataMsg d = SampleData();
  DataMsg dout = RoundTrip(d);
  EXPECT_EQ(dout.value, d.value);
}

NewKeyMsg SampleNewKey() {
  NewKeyMsg nk;
  nk.replica = 2;
  nk.epoch = 9;
  nk.counter = 1234;
  nk.auth = Bytes(128, 3);
  return nk;
}

QueryStableMsg SampleQueryStable() {
  QueryStableMsg q;
  q.replica = 1;
  q.nonce = 5;
  return q;
}

ReplyStableMsg SampleReplyStable() {
  ReplyStableMsg rs;
  rs.last_checkpoint = 32;
  rs.last_prepared = 40;
  rs.nonce = 5;
  rs.replica = 0;
  return rs;
}

TEST(MessagesTest, KeyAndRecoveryMessagesRoundTrip) {
  NewKeyMsg nk = SampleNewKey();
  NewKeyMsg nkout = RoundTrip(nk);
  EXPECT_EQ(nkout.epoch, 9u);
  EXPECT_EQ(nkout.counter, 1234u);

  QueryStableMsg q = SampleQueryStable();
  EXPECT_EQ(RoundTrip(q).nonce, 5u);

  ReplyStableMsg rs = SampleReplyStable();
  ReplyStableMsg rsout = RoundTrip(rs);
  EXPECT_EQ(rsout.last_checkpoint, 32u);
  EXPECT_EQ(rsout.last_prepared, 40u);
}

BatchFetchMsg SampleBatchFetch() {
  BatchFetchMsg bf;
  bf.batch_digest = ComputeDigest(ToBytes("batch"));
  bf.replica = 2;
  return bf;
}

BatchReplyMsg SampleBatchReply() {
  BatchReplyMsg br;
  br.payload.ndet = ToBytes("n");
  br.payload.requests = {SampleRequest()};
  br.replica = 1;
  return br;
}

TEST(MessagesTest, BatchFetchRoundTrip) {
  BatchFetchMsg bf = SampleBatchFetch();
  EXPECT_EQ(RoundTrip(bf).batch_digest, bf.batch_digest);

  BatchReplyMsg br = SampleBatchReply();
  BatchReplyMsg brout = RoundTrip(br);
  EXPECT_EQ(brout.payload.BatchDigest(), br.payload.BatchDigest());
}

// One sample of every wire type, in tag order.
std::vector<Message> AllSamples() {
  return {SampleRequest(),    SampleReply(),       SamplePrePrepare(),    SamplePrepare(),
          SampleCommit(),     SampleCheckpoint(),  SampleViewChange(),    SampleViewChangeAck(),
          SampleNewView(),    SampleStatus(),      SampleFetch(),         SampleMetaData(),
          SampleData(),       SampleBatchFetch(),  SampleBatchReply(),    SampleNewKey(),
          SampleQueryStable(), SampleReplyStable()};
}

TEST(MessagesTest, WireBytesAndAuthContentArePinned) {
  // Digests of each sample's full encoding and of its MAC'd content ("" for data replies,
  // which carry no MAC). Any change to a layout, a field width or what a MAC covers shows
  // here; replicas running different builds must agree on every byte.
  struct Pin {
    const char* wire;
    const char* auth;
  };
  const Pin kPins[] = {
      {"7f8a3ff4b0748b7366246568939c727b", "4abf4e5f1bcce614fbac4cddf0989043"},  // request
      {"c83572d3599530500a0fa4e5a75cb339", "362f165ba89714b1581e338179541a0a"},  // reply
      {"c25dc50943a6bb63e7234fc4582be7a3", "dbe6638a2c5f8d5062365c8b7567ea8f"},  // pre_prepare
      {"404446203999a45121a435c4522e8031", "30852379a1a5e5962a5d09ed082fef74"},  // prepare
      {"f6ac2b391bb6abb0e5fc2f6afe585206", "30852379a1a5e5962a5d09ed082fef74"},  // commit
      {"eb5f60d6723d2a885135bae82cfd60af", "97a0d6f789773a64f9dbf0966b0480da"},  // checkpoint
      {"5b4336a10b513127ae315b3ec335c1d6", "88ac8e4f0aebcdac1baa1a299d292e0f"},  // view_change
      {"08095296d9c768770f6689cc26ef273e", "9697a34cd4485e040261fb3781656130"},  // view_change_ack
      {"12983f43d1fe9e9c261630484d9243ff", "5361f7fb1e993260605b669b885f5a9a"},  // new_view
      {"54c73b60d00c8cb5a0a85ace6ad3d3bb", "fbe47c8a5494e98bafe15ab44714fd12"},  // status
      {"de2b41bcc19dca51cf7390da9ed88388", "b23317a601d5d5d5017f79baa964b364"},  // fetch
      {"40101ef8e83ebe537e872ecfb2f7e8f9", "8e7930e415523d8da736f6ee03f3798c"},  // meta_data
      {"b9b961f635a0a7f11cbeafa4db121321", ""},  // data
      {"ff5cdbb4c9fc697f8a1bf6ce226c8805", "d08782fb274dc7db4ae3d7c6eaba31c7"},  // batch_fetch
      {"2790a763a5541f8f563b076b96b0a295", "67abdd721024f0ff4e0b3f4c2fc13bc5"},  // batch_reply
      {"1be45e91f182e79b140293d4e8e47d20", "8875a3ba777ee906b0ba4e00aedf0d42"},  // new_key
      {"3056fed3e0223a37977bf34aa5e0c298", "96155d38b04eeef3bc3c739d7e1110e4"},  // query_stable
      {"bab2b48cfc2f98abd11bce012c8255dd", "eb270a68f14a0e83f926bd7e432b88e7"},  // reply_stable
  };
  std::vector<Message> samples = AllSamples();
  ASSERT_EQ(samples.size(), static_cast<size_t>(kNumMsgTypes));
  for (size_t i = 0; i < samples.size(); ++i) {
    const char* name = MsgTypeName(TypeOf(samples[i]));
    EXPECT_EQ(ComputeDigest(EncodeMessage(samples[i])).Hex(), kPins[i].wire) << name;
    std::string auth = std::visit(
        [](const auto& m) -> std::string {
          if constexpr (requires { m.AuthContent(); }) {
            return ComputeDigest(m.AuthContent()).Hex();
          } else {
            return "";
          }
        },
        samples[i]);
    EXPECT_EQ(auth, kPins[i].auth) << name;
  }
  // The digests other messages carry: view-change-acks and new-views name a view-change by
  // MessageDigest(); prepares, commits and P/Q entries name a batch by BatchDigest().
  EXPECT_EQ(SampleViewChange().MessageDigest().Hex(), "88ac8e4f0aebcdac1baa1a299d292e0f");
  EXPECT_EQ(SamplePrePrepare().BatchDigest().Hex(), "6c8496ec1a3aa2cb1597e8fe78f41b37");
  EXPECT_EQ(SampleBatchReply().payload.BatchDigest().Hex(), "c3d9996fe43d82bc587d2087ea671a5f");
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
  Rng rng(321);
  for (const Message& sample : AllSamples()) {
    Bytes wire = EncodeMessage(sample);
    for (int i = 0; i < 2000; ++i) {
      Bytes mutated = wire;
      mutated[rng.Below(mutated.size())] ^= static_cast<uint8_t>(1 + rng.Below(255));
      DecodeMessage(mutated);  // must not crash
    }
  }
}

TEST(MessagesTest, TinyMessagesClaimingHugeCountsDoNotAllocate) {
  // Each datagram claims 2^20 elements in one vector field and then ends. The decoder must
  // reject it without first allocating room for the claimed elements: any sender can reach
  // the decoder before authentication is checked.
  std::vector<Bytes> crafted;
  {
    Writer w;  // pre-prepare: inline_requests
    w.U8(static_cast<uint8_t>(MsgType::kPrePrepare));
    w.U64(1);        // view
    w.U64(1);        // seq
    w.U32(0);        // ndet
    w.U32(1 << 20);  // inline request count
    crafted.push_back(w.Take());
  }
  {
    Writer w;  // view-change: q
    w.U8(static_cast<uint8_t>(MsgType::kViewChange));
    w.U64(1);        // view
    w.U64(0);        // h
    w.U32(0);        // checkpoints
    w.U32(0);        // p
    w.U32(1 << 20);  // q
    crafted.push_back(w.Take());
  }
  {
    Writer w;  // new-view: payloads
    w.U8(static_cast<uint8_t>(MsgType::kNewView));
    w.U64(1);  // view
    w.U32(0);  // vc_set
    w.U64(0);  // min_s
    WriteDigest(w, Digest{});
    w.U32(0);        // chosen
    w.U32(1 << 20);  // payloads
    crafted.push_back(w.Take());
  }
  {
    Writer w;  // meta-data: parts
    w.U8(static_cast<uint8_t>(MsgType::kMetaData));
    w.U64(1);        // target
    w.U32(0);        // level
    w.U64(0);        // index
    w.U32(1 << 20);  // parts
    crafted.push_back(w.Take());
  }
  ASSERT_EQ(crafted[0].size(), 25u);
  ASSERT_EQ(crafted[1].size(), 29u);
  ASSERT_EQ(crafted[2].size(), 45u);
  ASSERT_EQ(crafted[3].size(), 25u);
  for (const Bytes& wire : crafted) {
    g_largest_alloc = 0;
    g_count_allocs = true;
    bool decoded = DecodeMessage(wire).has_value();
    g_count_allocs = false;
    EXPECT_FALSE(decoded) << "tag " << static_cast<int>(wire[0]);
    EXPECT_LT(g_largest_alloc.load(), size_t{64} << 10) << "tag " << static_cast<int>(wire[0]);
  }
}

// --- The allocation-free normal case -------------------------------------------------------------

TEST(MessagesTest, NormalCaseMacContentAllocatesNothing) {
  // MAC'd content lives in inline storage, so making it for a MAC or a check costs no heap.
  RequestMsg request = SampleRequest();
  request.op = Bytes(4096, 0x5a);
  ReplyMsg reply = SampleReply();
  PrepareMsg prepare = SamplePrepare();
  CommitMsg commit = SampleCommit();
  CheckpointMsg checkpoint = SampleCheckpoint();
  size_t total = 0;
  EXPECT_EQ(AllocationsIn([&]() { total += request.AuthContent().size(); }), 0u);
  EXPECT_EQ(AllocationsIn([&]() { total += reply.AuthContent().size(); }), 0u);
  EXPECT_EQ(AllocationsIn([&]() { total += prepare.AuthContent().size(); }), 0u);
  EXPECT_EQ(AllocationsIn([&]() { total += commit.AuthContent().size(); }), 0u);
  EXPECT_EQ(AllocationsIn([&]() { total += checkpoint.AuthContent().size(); }), 0u);
  EXPECT_GT(total, 0u);
}

TEST(MessagesTest, AuthenticatorsAllocateNothing) {
  // n = 4: the authenticator (4 MACs) is written into inline storage, and checking a slot
  // builds nothing. The first use of each session key fills the key cache, so warm it first.
  ReplicaConfig config;
  config.n = 4;
  PerfModel model;
  PublicKeyDirectory directory;
  AuthContext sender(0, &config, &model, &directory, directory.Generate(0, 1));
  AuthContext receiver(1, &config, &model, &directory, directory.Generate(1, 2));
  InlineBytes content = SamplePrepare().AuthContent();
  InlineBytes auth = sender.GenerateAuthenticator(content, nullptr);
  ASSERT_TRUE(receiver.VerifyAuthenticator(0, content, auth, nullptr));

  EXPECT_EQ(AllocationsIn([&]() { auth = sender.GenerateAuthenticator(content, nullptr); }), 0u);
  EXPECT_EQ(auth.size(), 4 * MacTag::kSize);
  bool ok = false;
  EXPECT_EQ(AllocationsIn([&]() { ok = receiver.VerifyAuthenticator(0, content, auth, nullptr); }),
            0u);
  EXPECT_TRUE(ok);
}

TEST(MessagesTest, DecodingAPrepareOrCommitAllocatesNothing) {
  // The trailer decodes into inline storage and the digest in place.
  PrepareMsg prepare = SamplePrepare();
  CommitMsg commit = SampleCommit();
  commit.auth = Bytes(32, 2);
  Bytes prepare_wire = EncodeTyped(prepare);
  Bytes commit_wire = EncodeTyped(commit);
  std::optional<Message> decoded;
  EXPECT_EQ(AllocationsIn([&]() { decoded = DecodeMessage(prepare_wire); }), 0u);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<PrepareMsg>(*decoded).auth, prepare.auth);
  EXPECT_EQ(AllocationsIn([&]() { decoded = DecodeMessage(commit_wire); }), 0u);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<CommitMsg>(*decoded).batch_digest, commit.batch_digest);
}

TEST(MessagesTest, EncodingALargeRequestAllocatesOnce) {
  // A counting pass sizes the output; the encode then fills one exact-size buffer.
  RequestMsg request = SampleRequest();
  request.op = Bytes(4096, 0x5a);
  Message message(request);
  Bytes typed;
  Bytes visited;
  EXPECT_EQ(AllocationsIn([&]() { typed = EncodeTyped(request); }), 1u);
  EXPECT_EQ(AllocationsIn([&]() { visited = EncodeMessage(message); }), 1u);
  EXPECT_EQ(typed.size(), typed.capacity());
  EXPECT_EQ(typed, visited);
}

TEST(MessagesTest, DecodedRequestCopiesShareTheirOp) {
  // Decoded from a shared buffer, the op is a slice of that buffer, and copies of the
  // request share it: no copy of the body, no allocation.
  RequestMsg request = SampleRequest();
  request.op = Bytes(4096, 0x5a);
  MsgBuffer wire = EncodeTyped(request);
  std::optional<Message> decoded = DecodeMessage(wire);
  ASSERT_TRUE(decoded.has_value());
  const RequestMsg& original = std::get<RequestMsg>(*decoded);
  EXPECT_EQ(original.op, request.op);
  EXPECT_GE(original.op.data(), wire.data());
  EXPECT_LE(original.op.data() + original.op.size(), wire.data() + wire.size());

  std::optional<RequestMsg> first;
  std::optional<RequestMsg> second;
  EXPECT_EQ(AllocationsIn([&]() {
              first.emplace(original);
              second.emplace(*first);
            }),
            0u);
  EXPECT_EQ(first->op.data(), original.op.data());
  EXPECT_EQ(second->op.data(), original.op.data());
  EXPECT_EQ(second->RequestDigest(), request.RequestDigest());

  // Decoded from a plain view, the op is a copy that outlives the input.
  std::optional<Message> copied = DecodeMessage(wire.view());
  ASSERT_TRUE(copied.has_value());
  const RequestMsg& owned = std::get<RequestMsg>(*copied);
  EXPECT_EQ(owned.op, request.op);
  EXPECT_TRUE(owned.op.data() < wire.data() || owned.op.data() >= wire.data() + wire.size());
}

}  // namespace
}  // namespace bft
