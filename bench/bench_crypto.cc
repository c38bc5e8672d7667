// Crypto micro-benchmark: digests/s and MACs/s, isolating the session-key/HMAC-state cache
// from protocol effects.
//
// Three MAC paths over a typical fixed-size authenticated header:
//   derive+mac  — the pre-cache hot path: re-derive the session key (one SHA-256) and build
//                 the full HMAC key schedule (ipad/opad blocks) on every call.
//   schedule    — key known, but the key schedule is still rebuilt per call (plain
//                 HmacSha256(key, msg)).
//   cached      — precomputed HmacState per session key: two SHA-256 finishes per MAC, the
//                 floor for HMAC. This is what AuthContext::MacStateFor serves per peer.
//
// Wall-clock numbers; they move with the SHA backend (SHA-NI vs scalar) and the cache, not
// with the simulator's cost model.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/common/serializer.h"
#include "src/crypto/digest.h"
#include "src/crypto/hmac.h"
#include "src/crypto/mac.h"

namespace bft {
namespace {

constexpr double kRateSeconds = 0.3;

// Runs `fn` repeatedly for ~kRateSeconds; returns calls per second.
template <typename Fn>
double Rate(Fn&& fn) {
  using Clock = std::chrono::steady_clock;
  // Calibration pass keeps the clock out of the measured loop.
  uint64_t batch = 64;
  auto t0 = Clock::now();
  for (uint64_t i = 0; i < batch; ++i) {
    fn();
  }
  double per_call =
      std::chrono::duration<double>(Clock::now() - t0).count() / static_cast<double>(batch);
  uint64_t calls = per_call > 0 ? static_cast<uint64_t>(kRateSeconds / per_call) : 1;
  calls = calls < 1 ? 1 : calls;
  t0 = Clock::now();
  for (uint64_t i = 0; i < calls; ++i) {
    fn();
  }
  double elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
  return elapsed > 0 ? static_cast<double>(calls) / elapsed : 0;
}

}  // namespace
}  // namespace bft

int main() {
  using namespace bft;

  Rng rng(17);
  Bytes key = rng.RandomBytes(kSessionKeySize);
  // 48 bytes: the ballpark of an authenticated protocol header (AuthContent of a
  // prepare/commit: view + seq + digest + replica id).
  Bytes header = rng.RandomBytes(48);
  volatile uint8_t sink = 0;  // defeats dead-code elimination of the hash loops

  std::printf("\n================================================================\n");
  std::printf("CRYPTO: digest and MAC microbenchmarks (wall clock)\n");
  std::printf("================================================================\n");

  struct DigestCase {
    const char* name;
    size_t size;
  };
  for (const DigestCase& c : {DigestCase{"digest-64B", 64}, DigestCase{"digest-1KB", 1024},
                              DigestCase{"digest-4KB", 4096}}) {
    Bytes payload = rng.RandomBytes(c.size);
    double rate = Rate([&]() {
      Digest d = ComputeDigest(payload);
      sink ^= d.bytes[0];
    });
    std::printf("%-24s %12.0f /s  (%6.1f MB/s)\n", c.name, rate,
                rate * static_cast<double>(c.size) / 1e6);
  }

  // The pre-PR hot path, reproduced verbatim: AuthContext::KeyFor serialized the derivation
  // preimage into a fresh Writer and hashed it, then HmacSha256 rebuilt the ipad/opad key
  // schedule and ran the full streaming inner/outer hashes — on every MAC, all on the scalar
  // SHA-256 this repo shipped before the hardware kernel. Scalar is forced for this row so
  // the number is what the pre-PR binary actually did.
  Sha256::ForceScalarForBenchmarks(true);
  double uncached_mac = Rate([&]() {
    Writer w;
    w.Str("bft-session-key-master");
    w.U32(0);
    w.U32(1);
    w.U64(0);
    Sha256::DigestBytes full = Sha256::Hash(w.data());
    Bytes k(full.begin(), full.begin() + kSessionKeySize);
    constexpr size_t kBlockSize = 64;
    uint8_t key_block[kBlockSize] = {0};
    std::memcpy(key_block, k.data(), k.size());
    uint8_t ipad[kBlockSize];
    uint8_t opad[kBlockSize];
    for (size_t i = 0; i < kBlockSize; ++i) {
      ipad[i] = key_block[i] ^ 0x36;
      opad[i] = key_block[i] ^ 0x5c;
    }
    Sha256 inner;
    inner.Update(ByteView(ipad, kBlockSize));
    inner.Update(header);
    Sha256::DigestBytes inner_digest = inner.Finish();
    Sha256 outer;
    outer.Update(ByteView(opad, kBlockSize));
    outer.Update(ByteView(inner_digest.data(), inner_digest.size()));
    Sha256::DigestBytes mac = outer.Finish();
    MacTag tag;
    std::memcpy(tag.bytes.data(), mac.data(), MacTag::kSize);
    sink ^= tag.bytes[0];
  });
  Sha256::ForceScalarForBenchmarks(false);
  // Same per-call derivation, but on today's SHA backend (still no cache): isolates the
  // cache win from the hardware-kernel win.
  double derive_mac = Rate([&]() {
    Writer w;
    w.Str("bft-session-key-master");
    w.U32(0);
    w.U32(1);
    w.U64(0);
    Sha256::DigestBytes full = Sha256::Hash(w.data());
    Bytes k(full.begin(), full.begin() + kSessionKeySize);
    MacTag tag = ComputeMac(k, header);
    sink ^= tag.bytes[0];
  });
  double schedule_mac = Rate([&]() {
    MacTag tag = ComputeMac(key, header);
    sink ^= tag.bytes[0];
  });
  HmacState cached_state(key);
  double cached_mac = Rate([&]() {
    MacTag tag = ComputeMac(cached_state, header);
    sink ^= tag.bytes[0];
  });

  std::printf("%-24s %12.0f /s  (pre-PR hot path: derive+schedule, scalar SHA)\n",
              "mac-uncached", uncached_mac);
  std::printf("%-24s %12.0f /s\n", "mac-derive+schedule", derive_mac);
  std::printf("%-24s %12.0f /s\n", "mac-schedule-only", schedule_mac);
  std::printf("%-24s %12.0f /s\n", "mac-cached-state", cached_mac);
  std::printf("cached vs uncached: %.2fx   vs derive+schedule: %.2fx   vs schedule-only: %.2fx\n",
              uncached_mac > 0 ? cached_mac / uncached_mac : 0,
              derive_mac > 0 ? cached_mac / derive_mac : 0,
              schedule_mac > 0 ? cached_mac / schedule_mac : 0);

  return 0;
}
