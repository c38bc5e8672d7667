// 16-byte message digests.
//
// The paper uses MD5 (16 bytes); we substitute SHA-256 truncated to 16 bytes, keeping the
// wire size and the collision-resistance assumption.
#ifndef SRC_CRYPTO_DIGEST_H_
#define SRC_CRYPTO_DIGEST_H_

#include <array>
#include <compare>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>

#include "src/common/bytes.h"

namespace bft {

struct Digest {
  static constexpr size_t kSize = 16;
  std::array<uint8_t, kSize> bytes{};

  auto operator<=>(const Digest&) const = default;

  bool IsZero() const {
    for (uint8_t b : bytes) {
      if (b != 0) {
        return false;
      }
    }
    return true;
  }

  ByteView View() const { return ByteView(bytes.data(), bytes.size()); }
  std::string Hex() const;
};

// Computes the truncated digest of `data`.
Digest ComputeDigest(ByteView data);

// Digest of the concatenation of several fields; each field is length-delimited internally so
// that (a, bc) and (ab, c) hash differently.
Digest ComputeDigestParts(std::initializer_list<ByteView> parts);

// Digest of the plain concatenation of `parts`, streamed without copying them: equal to
// ComputeDigest of the joined bytes. The caller's encoding must make the split unambiguous.
Digest ComputeDigestConcat(std::initializer_list<ByteView> parts);

struct DigestHasher {
  size_t operator()(const Digest& d) const {
    uint64_t v;
    std::memcpy(&v, d.bytes.data(), sizeof(v));
    return static_cast<size_t>(v);
  }
};

}  // namespace bft

#endif  // SRC_CRYPTO_DIGEST_H_
