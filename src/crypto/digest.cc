#include "src/crypto/digest.h"

#include "src/crypto/sha256.h"

namespace bft {

std::string Digest::Hex() const { return HexEncode(View()); }

namespace {
Digest Truncate(const Sha256::DigestBytes& full) {
  Digest d;
  std::memcpy(d.bytes.data(), full.data(), Digest::kSize);
  return d;
}
}  // namespace

Digest ComputeDigest(ByteView data) { return Truncate(Sha256::Hash(data)); }

Digest ComputeDigestParts(std::initializer_list<ByteView> parts) {
  // The preimage of a Writer::Var per part (U32 little-endian length, then the bytes),
  // streamed so no part is copied before it is hashed.
  Sha256 h;
  for (ByteView p : parts) {
    uint8_t len[4];
    for (int i = 0; i < 4; ++i) {
      len[i] = static_cast<uint8_t>(p.size() >> (8 * i));
    }
    h.Update(ByteView(len, sizeof(len)));
    h.Update(p);
  }
  return Truncate(h.Finish());
}

Digest ComputeDigestConcat(std::initializer_list<ByteView> parts) {
  Sha256 h;
  for (ByteView p : parts) {
    h.Update(p);
  }
  return Truncate(h.Finish());
}

}  // namespace bft
