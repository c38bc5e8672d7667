#include "src/crypto/digest.h"

#include "src/common/serializer.h"
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
  Writer w;
  for (ByteView p : parts) {
    w.Var(p);
  }
  return ComputeDigest(w.data());
}

Digest ComputeDigestConcat(std::initializer_list<ByteView> parts) {
  Sha256 h;
  for (ByteView p : parts) {
    h.Update(p);
  }
  return Truncate(h.Finish());
}

}  // namespace bft
