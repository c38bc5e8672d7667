#include "src/crypto/sha256.h"

#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define BFT_SHA_NI_POSSIBLE 1
#endif

namespace bft {

namespace {

constexpr uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
    0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
    0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
    0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
    0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2,
};

inline uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

bool g_force_scalar = false;  // bench hook; see Sha256::ForceScalarForBenchmarks

#ifdef BFT_SHA_NI_POSSIBLE

bool HasShaNi() {
  static const bool supported = __builtin_cpu_supports("sha") &&
                                __builtin_cpu_supports("ssse3") &&
                                __builtin_cpu_supports("sse4.1");
  return supported && !g_force_scalar;
}

// x86 SHA-extensions kernel (the standard two-lane ABEF/CDGH formulation). Compresses `n`
// consecutive blocks with the working state pinned in registers. Compiled with a function-
// level target attribute so the rest of the binary stays portable; only reached after the
// cpuid check above.
__attribute__((target("sha,ssse3,sse4.1"))) void ProcessBlocksShaNi(
    std::array<uint32_t, 8>& state, const uint8_t* data, size_t n) {
  const __m128i kShuffleMask =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  auto k = [](int i) {
    return _mm_set_epi32(static_cast<int>(kK[i + 3]), static_cast<int>(kK[i + 2]),
                         static_cast<int>(kK[i + 1]), static_cast<int>(kK[i]));
  };

  // Repack a,b,...,h into the ABEF / CDGH lane order the rnds2 instruction expects.
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  __m128i state1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);
  state1 = _mm_shuffle_epi32(state1, 0x1B);
  __m128i state0 = _mm_alignr_epi8(tmp, state1, 8);
  state1 = _mm_blend_epi16(state1, tmp, 0xF0);

  while (n > 0) {
    const __m128i abef_save = state0;
    const __m128i cdgh_save = state1;
    __m128i msg, tmp4;

    // Rounds 0-15: load and byte-swap the message words.
    __m128i msg0 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 0)), kShuffleMask);
    msg = _mm_add_epi32(msg0, k(0));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    state0 = _mm_sha256rnds2_epu32(state0, state1, _mm_shuffle_epi32(msg, 0x0E));

    __m128i msg1 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16)), kShuffleMask);
    msg = _mm_add_epi32(msg1, k(4));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    state0 = _mm_sha256rnds2_epu32(state0, state1, _mm_shuffle_epi32(msg, 0x0E));
    msg0 = _mm_sha256msg1_epu32(msg0, msg1);

    __m128i msg2 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 32)), kShuffleMask);
    msg = _mm_add_epi32(msg2, k(8));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    state0 = _mm_sha256rnds2_epu32(state0, state1, _mm_shuffle_epi32(msg, 0x0E));
    msg1 = _mm_sha256msg1_epu32(msg1, msg2);

    __m128i msg3 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 48)), kShuffleMask);
    msg = _mm_add_epi32(msg3, k(12));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    tmp4 = _mm_alignr_epi8(msg3, msg2, 4);
    msg0 = _mm_add_epi32(msg0, tmp4);
    msg0 = _mm_sha256msg2_epu32(msg0, msg3);
    state0 = _mm_sha256rnds2_epu32(state0, state1, _mm_shuffle_epi32(msg, 0x0E));
    msg2 = _mm_sha256msg1_epu32(msg2, msg3);

    // Rounds 16-47: full schedule recurrence, message registers rotating roles.
    for (int i = 16; i < 48; i += 16) {
      msg = _mm_add_epi32(msg0, k(i));
      state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
      tmp4 = _mm_alignr_epi8(msg0, msg3, 4);
      msg1 = _mm_add_epi32(msg1, tmp4);
      msg1 = _mm_sha256msg2_epu32(msg1, msg0);
      state0 = _mm_sha256rnds2_epu32(state0, state1, _mm_shuffle_epi32(msg, 0x0E));
      msg3 = _mm_sha256msg1_epu32(msg3, msg0);

      msg = _mm_add_epi32(msg1, k(i + 4));
      state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
      tmp4 = _mm_alignr_epi8(msg1, msg0, 4);
      msg2 = _mm_add_epi32(msg2, tmp4);
      msg2 = _mm_sha256msg2_epu32(msg2, msg1);
      state0 = _mm_sha256rnds2_epu32(state0, state1, _mm_shuffle_epi32(msg, 0x0E));
      msg0 = _mm_sha256msg1_epu32(msg0, msg1);

      msg = _mm_add_epi32(msg2, k(i + 8));
      state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
      tmp4 = _mm_alignr_epi8(msg2, msg1, 4);
      msg3 = _mm_add_epi32(msg3, tmp4);
      msg3 = _mm_sha256msg2_epu32(msg3, msg2);
      state0 = _mm_sha256rnds2_epu32(state0, state1, _mm_shuffle_epi32(msg, 0x0E));
      msg1 = _mm_sha256msg1_epu32(msg1, msg2);

      msg = _mm_add_epi32(msg3, k(i + 12));
      state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
      tmp4 = _mm_alignr_epi8(msg3, msg2, 4);
      msg0 = _mm_add_epi32(msg0, tmp4);
      msg0 = _mm_sha256msg2_epu32(msg0, msg3);
      state0 = _mm_sha256rnds2_epu32(state0, state1, _mm_shuffle_epi32(msg, 0x0E));
      msg2 = _mm_sha256msg1_epu32(msg2, msg3);
    }

    // Rounds 48-63: schedule tail. The 48-51 group still owes the msg1 feed for w[60..63];
    // after that the remaining words are already complete.
    msg = _mm_add_epi32(msg0, k(48));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    tmp4 = _mm_alignr_epi8(msg0, msg3, 4);
    msg1 = _mm_add_epi32(msg1, tmp4);
    msg1 = _mm_sha256msg2_epu32(msg1, msg0);
    state0 = _mm_sha256rnds2_epu32(state0, state1, _mm_shuffle_epi32(msg, 0x0E));
    msg3 = _mm_sha256msg1_epu32(msg3, msg0);

    msg = _mm_add_epi32(msg1, k(52));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    tmp4 = _mm_alignr_epi8(msg1, msg0, 4);
    msg2 = _mm_add_epi32(msg2, tmp4);
    msg2 = _mm_sha256msg2_epu32(msg2, msg1);
    state0 = _mm_sha256rnds2_epu32(state0, state1, _mm_shuffle_epi32(msg, 0x0E));

    msg = _mm_add_epi32(msg2, k(56));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    tmp4 = _mm_alignr_epi8(msg2, msg1, 4);
    msg3 = _mm_add_epi32(msg3, tmp4);
    msg3 = _mm_sha256msg2_epu32(msg3, msg2);
    state0 = _mm_sha256rnds2_epu32(state0, state1, _mm_shuffle_epi32(msg, 0x0E));

    msg = _mm_add_epi32(msg3, k(60));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    state0 = _mm_sha256rnds2_epu32(state0, state1, _mm_shuffle_epi32(msg, 0x0E));

    state0 = _mm_add_epi32(state0, abef_save);
    state1 = _mm_add_epi32(state1, cdgh_save);
    data += 64;
    --n;
  }

  // Repack ABEF / CDGH back into a,b,...,h order.
  tmp = _mm_shuffle_epi32(state0, 0x1B);
  state1 = _mm_shuffle_epi32(state1, 0xB1);
  state0 = _mm_blend_epi16(tmp, state1, 0xF0);
  state1 = _mm_alignr_epi8(state1, tmp, 8);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), state0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), state1);
}

#endif  // BFT_SHA_NI_POSSIBLE

}  // namespace

Sha256::Sha256() {
  state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
}

void Sha256::ProcessBlocks(const uint8_t* blocks, size_t n) {
#ifdef BFT_SHA_NI_POSSIBLE
  if (HasShaNi()) {
    ProcessBlocksShaNi(state_, blocks, n);
    return;
  }
#endif
  for (size_t i = 0; i < n; ++i) {
    ProcessBlock(blocks + i * 64);
  }
}

void Sha256::Compress(std::array<uint32_t, 8>& h, const uint8_t* blocks, size_t n) {
#ifdef BFT_SHA_NI_POSSIBLE
  if (HasShaNi()) {
    ProcessBlocksShaNi(h, blocks, n);
    return;
  }
#endif
  Sha256 tmp;
  tmp.state_ = h;
  for (size_t i = 0; i < n; ++i) {
    tmp.ProcessBlock(blocks + i * 64);
  }
  h = tmp.state_;
}

void Sha256::ProcessBlock(const uint8_t* block) {
  uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<uint32_t>(block[i * 4]) << 24) |
           (static_cast<uint32_t>(block[i * 4 + 1]) << 16) |
           (static_cast<uint32_t>(block[i * 4 + 2]) << 8) |
           static_cast<uint32_t>(block[i * 4 + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    uint32_t s0 = Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    uint32_t s1 = Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  uint32_t a = state_[0];
  uint32_t b = state_[1];
  uint32_t c = state_[2];
  uint32_t d = state_[3];
  uint32_t e = state_[4];
  uint32_t f = state_[5];
  uint32_t g = state_[6];
  uint32_t h = state_[7];

  for (int i = 0; i < 64; ++i) {
    uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
    uint32_t ch = (e & f) ^ (~e & g);
    uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
    uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
    uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }

  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
  state_[4] += e;
  state_[5] += f;
  state_[6] += g;
  state_[7] += h;
}

void Sha256::Update(ByteView data) {
  if (data.empty()) {
    return;  // an empty view may carry a null pointer, which memcpy must not receive
  }
  total_len_ += data.size();
  size_t offset = 0;
  if (buffer_len_ > 0) {
    size_t take = std::min(data.size(), buffer_.size() - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset = take;
    if (buffer_len_ == buffer_.size()) {
      ProcessBlocks(buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }
  if (size_t whole = (data.size() - offset) / 64; whole > 0) {
    ProcessBlocks(data.data() + offset, whole);
    offset += whole * 64;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffer_len_ = data.size() - offset;
  }
}

Sha256::DigestBytes Sha256::Finish() {
  uint64_t bit_len = total_len_ * 8;
  uint8_t pad[72];
  size_t pad_len = 0;
  pad[pad_len++] = 0x80;
  while ((total_len_ + pad_len) % 64 != 56) {
    pad[pad_len++] = 0;
  }
  Update(ByteView(pad, pad_len));
  uint8_t len_bytes[8];
  for (int i = 0; i < 8; ++i) {
    len_bytes[i] = static_cast<uint8_t>(bit_len >> (56 - 8 * i));
  }
  Update(ByteView(len_bytes, 8));

  DigestBytes out;
  for (int i = 0; i < 8; ++i) {
    out[i * 4] = static_cast<uint8_t>(state_[i] >> 24);
    out[i * 4 + 1] = static_cast<uint8_t>(state_[i] >> 16);
    out[i * 4 + 2] = static_cast<uint8_t>(state_[i] >> 8);
    out[i * 4 + 3] = static_cast<uint8_t>(state_[i]);
  }
  return out;
}

Sha256::DigestBytes Sha256::Hash(ByteView data) {
  Sha256 h;
  h.Update(data);
  return h.Finish();
}

bool Sha256::UsingShaNi() {
#ifdef BFT_SHA_NI_POSSIBLE
  return HasShaNi();
#else
  return false;
#endif
}

void Sha256::ForceScalarForBenchmarks(bool force) { g_force_scalar = force; }

Sha256::MidState Sha256::Snapshot() const {
  return MidState{state_, total_len_};
}

void Sha256::Restore(const MidState& mid) {
  state_ = mid.h;
  total_len_ = mid.total_len;
  buffer_len_ = 0;
}

}  // namespace bft
