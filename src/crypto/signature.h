// Simulated public-key signatures.
//
// The paper uses Rabin-1024 via SFS. This repository substitutes a keyed-hash construction
// with asymmetric *semantics* inside the simulation: only the holder of a PrivateKey object
// can produce a node's signature, and anyone holding the PublicKeyDirectory can verify.
// Unforgeability holds by construction (the secret never leaves the directory/private key).
// The CPU cost asymmetry that drives the paper's BFT vs BFT-PK comparison is charged by the
// performance model (PerfModel::sign_cost / verify_cost), not here.
#ifndef SRC_CRYPTO_SIGNATURE_H_
#define SRC_CRYPTO_SIGNATURE_H_

#include <cstdint>
#include <map>
#include <memory>

#include "src/common/bytes.h"
#include "src/common/thread_annotations.h"

namespace bft {

using PrincipalId = uint32_t;

struct Signature {
  static constexpr size_t kSize = 128;  // Matches an RSA/Rabin-1024 signature's wire size.
  Bytes bytes;

  bool operator==(const Signature& other) const = default;
};

class PrivateKey;

// Holds verification material for all principals. In a deployment this would be the set of
// public keys in read-only memory; here it is shared by reference among simulated nodes.
// Thread-safe: a replica restarted at runtime (RtCluster::RestartReplica) re-runs Generate
// while live nodes may be verifying, so registration takes the lock exclusively and lookups
// share it. Same-(id, seed) regeneration writes back identical bytes by construction.
class PublicKeyDirectory {
 public:
  // Generates a fresh keypair for `id` and registers its verification material.
  std::unique_ptr<PrivateKey> Generate(PrincipalId id, uint64_t seed);

  bool Verify(PrincipalId id, ByteView message, const Signature& sig) const;

 private:
  friend class PrivateKey;
  mutable SharedMutex mu_;
  std::map<PrincipalId, Bytes> secrets_ BFT_GUARDED_BY(mu_);
};

class PrivateKey {
 public:
  Signature Sign(ByteView message) const;
  PrincipalId id() const { return id_; }

 private:
  friend class PublicKeyDirectory;
  PrivateKey(PrincipalId id, Bytes secret) : id_(id), secret_(std::move(secret)) {}

  PrincipalId id_;
  Bytes secret_;
};

}  // namespace bft

#endif  // SRC_CRYPTO_SIGNATURE_H_
