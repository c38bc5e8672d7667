// Message authentication for replicas and clients (Sections 3.2.1, 4.3.1).
//
// BFT mode: every node pair (i, j) shares a session key k_{i,j} used for messages from i to j.
// Multicasts carry an authenticator — a vector of per-replica MAC tags over the message's
// fixed-size header. Keys are refreshed in epochs: node j's NEW-KEY message moves j's incoming
// keys to a new epoch, and j rejects anything authenticated under an older epoch ("freshness").
//
// Key distribution substitution: the real library encrypts fresh keys under the receiver's
// public key inside NEW-KEY messages. In the simulator both ends *derive* k_{i,j} for epoch e
// as H(master || i || j || e); the NEW-KEY message then only needs to announce the epoch bump.
// This preserves everything the protocol observes — which messages authenticate under which
// epoch, and when stale messages get rejected — without modelling encryption.
//
// BFT-PK mode: authenticators are replaced by signatures from the node's private key.
#ifndef SRC_CORE_AUTH_H_
#define SRC_CORE_AUTH_H_

#include <atomic>
#include <map>
#include <memory>
#include <unordered_map>

#include "src/common/inline_bytes.h"
#include "src/core/config.h"
#include "src/core/cpu_meter.h"
#include "src/crypto/mac.h"
#include "src/crypto/signature.h"
#include "src/model/perf_model.h"

namespace bft {

class AuthContext {
 public:
  AuthContext(NodeId self, const ReplicaConfig* config, const PerfModel* model,
              PublicKeyDirectory* directory, std::unique_ptr<PrivateKey> private_key)
      : self_(self),
        config_(config),
        model_(model),
        directory_(directory),
        private_key_(std::move(private_key)) {}

  NodeId self() const { return self_; }
  AuthMode mode() const { return config_->auth_mode; }

  // --- Epoch management (Section 4.3.1) ----------------------------------------------------
  // Epoch this node announces for its incoming keys.
  uint64_t my_epoch() const { return my_epoch_; }
  // Called when this node issues a NEW-KEY message.
  void BumpMyEpoch() { ++my_epoch_; }
  // Called when a (verified) NEW-KEY from `peer` announces `epoch`.
  // Returns false if the epoch is not monotonically increasing (replay / stale).
  bool SetPeerEpoch(NodeId peer, uint64_t epoch);
  uint64_t PeerEpoch(NodeId peer) const;

  // --- MAC-mode primitives -----------------------------------------------------------------
  // Session key for messages from `src` to `dst` under the epoch `dst` currently announces
  // (as known to this node).
  Bytes KeyFor(NodeId src, NodeId dst) const;

  // Hot-path key lookup: derived key plus precomputed HMAC state, cached per (src, dst) and
  // recomputed only when the governing NEW-KEY epoch moves. A MAC through this path costs two
  // SHA-256 finishes; the uncached path pays key derivation plus the full HMAC key schedule
  // on every call.
  const HmacState& MacStateFor(NodeId src, NodeId dst) const;

  // Authenticator over `content` for a multicast to all replicas. Charges (n-1) MACs (or n if
  // the sender is a client, which must cover every replica). Written straight into inline
  // storage: no heap allocation for n <= 14.
  InlineBytes GenerateAuthenticator(ByteView content, CpuMeter* cpu) const;

  // Verifies this node's slot of `sender`'s authenticator. Charges one MAC.
  bool VerifyAuthenticator(NodeId sender, ByteView content, ByteView auth, CpuMeter* cpu) const;

  // Verifies the slot belonging to `slot_owner` instead of self — used by condition A2-style
  // checks and by tests.
  bool VerifyAuthenticatorSlot(NodeId sender, NodeId slot_owner, ByteView content,
                               ByteView auth) const;

  // Single point-to-point MAC.
  InlineBytes GenerateMac(NodeId dst, ByteView content, CpuMeter* cpu) const;
  bool VerifyMac(NodeId sender, ByteView content, ByteView auth, CpuMeter* cpu) const;

  // Session-cache effectiveness (PR 3 built the cache; these report it at run time). A hit
  // reuses the precomputed HMAC state; a miss pays key derivation plus the HMAC key
  // schedule. Relaxed atomics so an admin/export thread can read while the owning loop
  // thread authenticates.
  uint64_t mac_cache_hits() const { return cache_hits_.load(std::memory_order_relaxed); }
  uint64_t mac_cache_misses() const { return cache_misses_.load(std::memory_order_relaxed); }

  // --- Signature-mode primitives -----------------------------------------------------------
  Bytes GenerateSignature(ByteView content, CpuMeter* cpu) const;
  bool VerifySignature(NodeId sender, ByteView content, ByteView auth, CpuMeter* cpu) const;

  // --- Mode-dispatched helpers used by the protocol ----------------------------------------
  // Authentication trailer for a message multicast to the replica group.
  InlineBytes GenAuthMulticast(ByteView content, CpuMeter* cpu) const {
    return mode() == AuthMode::kMac ? GenerateAuthenticator(content, cpu)
                                    : InlineBytes(GenerateSignature(content, cpu));
  }
  bool VerifyAuthMulticast(NodeId sender, ByteView content, ByteView auth, CpuMeter* cpu) const {
    return mode() == AuthMode::kMac ? VerifyAuthenticator(sender, content, auth, cpu)
                                    : VerifySignature(sender, content, auth, cpu);
  }
  // Trailer for a point-to-point message.
  InlineBytes GenAuthPoint(NodeId dst, ByteView content, CpuMeter* cpu) const {
    return mode() == AuthMode::kMac ? GenerateMac(dst, content, cpu)
                                    : InlineBytes(GenerateSignature(content, cpu));
  }
  bool VerifyAuthPoint(NodeId sender, ByteView content, ByteView auth, CpuMeter* cpu) const {
    return mode() == AuthMode::kMac ? VerifyMac(sender, content, auth, cpu)
                                    : VerifySignature(sender, content, auth, cpu);
  }

 private:
  struct SessionKey {
    // Sentinel: epochs start at 0 and only grow, so the first lookup always derives.
    uint64_t epoch = ~uint64_t{0};
    Bytes key;
    HmacState hmac;
  };

  // Epoch governing the (src, dst) session key, and the derived entry for it. The cache is
  // mutable bookkeeping: observable MACs are identical with or without it.
  uint64_t EpochFor(NodeId src, NodeId dst) const;
  const SessionKey& SessionFor(NodeId src, NodeId dst) const;

  NodeId self_;
  const ReplicaConfig* config_;
  const PerfModel* model_;
  PublicKeyDirectory* directory_;
  std::unique_ptr<PrivateKey> private_key_;
  uint64_t my_epoch_ = 0;
  std::map<NodeId, uint64_t> peer_epochs_;
  // Keyed by (src, dst) packed into 64 bits. Entries self-invalidate when the governing epoch
  // moves. Bounded: a Byzantine flood of fabricated sender ids must not grow memory without
  // limit, so the cache is dropped wholesale past kMaxSessionCache and rebuilt on demand.
  static constexpr size_t kMaxSessionCache = 4096;
  mutable std::unordered_map<uint64_t, SessionKey> session_cache_;
  mutable std::atomic<uint64_t> cache_hits_{0};
  mutable std::atomic<uint64_t> cache_misses_{0};
};

}  // namespace bft

#endif  // SRC_CORE_AUTH_H_
