#include "src/core/auth.h"

#include <cstring>

#include "src/common/serializer.h"
#include "src/crypto/hmac.h"

namespace bft {

namespace {
// Master secret for in-simulation key derivation (see header comment). A deployment would
// exchange keys via NEW-KEY messages encrypted under the receiver's public key.
constexpr char kMaster[] = "bft-session-key-master";
}  // namespace

bool AuthContext::SetPeerEpoch(NodeId peer, uint64_t epoch) {
  uint64_t& current = peer_epochs_[peer];
  if (epoch <= current) {
    return false;
  }
  current = epoch;
  return true;
}

uint64_t AuthContext::PeerEpoch(NodeId peer) const {
  if (peer == self_) {
    return my_epoch_;
  }
  auto it = peer_epochs_.find(peer);
  return it == peer_epochs_.end() ? 0 : it->second;
}

uint64_t AuthContext::EpochFor(NodeId src, NodeId dst) const {
  // Replica-to-replica keys are refreshed by the *receiver*'s NEW-KEY epoch. Client-replica
  // keys are owned (and would be refreshed) by the client, in both directions (Section 4.3.1).
  if (IsClientId(src)) {
    return PeerEpoch(src);
  }
  return PeerEpoch(dst);
}

const AuthContext::SessionKey& AuthContext::SessionFor(NodeId src, NodeId dst) const {
  uint64_t epoch = EpochFor(src, dst);
  if (session_cache_.size() > kMaxSessionCache) {
    session_cache_.clear();
  }
  SessionKey& entry = session_cache_[(static_cast<uint64_t>(src) << 32) | dst];
  if (entry.epoch == epoch) {
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
  } else {
    cache_misses_.fetch_add(1, std::memory_order_relaxed);
  }
  if (entry.epoch != epoch) {
    // Fixed-layout preimage, byte-identical to the Writer encoding this replaces:
    // Str(kMaster) | U32(src) | U32(dst) | U64(epoch), all little-endian.
    constexpr size_t kMasterLen = sizeof(kMaster) - 1;
    uint8_t preimage[4 + kMasterLen + 4 + 4 + 8];
    uint8_t* p = preimage;
    auto put_le = [&p](uint64_t v, int bytes) {
      for (int i = 0; i < bytes; ++i) {
        *p++ = static_cast<uint8_t>(v >> (8 * i));
      }
    };
    put_le(kMasterLen, 4);
    std::memcpy(p, kMaster, kMasterLen);
    p += kMasterLen;
    put_le(src, 4);
    put_le(dst, 4);
    put_le(epoch, 8);
    Sha256::DigestBytes full = Sha256::Hash(ByteView(preimage, sizeof(preimage)));
    entry.key.assign(full.begin(), full.begin() + kSessionKeySize);
    entry.hmac = HmacState(entry.key);
    entry.epoch = epoch;
  }
  return entry;
}

Bytes AuthContext::KeyFor(NodeId src, NodeId dst) const { return SessionFor(src, dst).key; }

const HmacState& AuthContext::MacStateFor(NodeId src, NodeId dst) const {
  return SessionFor(src, dst).hmac;
}

InlineBytes AuthContext::GenerateAuthenticator(ByteView content, CpuMeter* cpu) const {
  InlineBytes out;
  out.resize(static_cast<size_t>(config_->n) * MacTag::kSize);
  int charged = 0;
  for (int j = 0; j < config_->n; ++j) {
    NodeId dst = config_->ReplicaId(j);
    if (dst == self_) {
      continue;  // self slot stays zero
    }
    MacTag tag = ComputeMac(MacStateFor(self_, dst), content);
    std::copy(tag.bytes.begin(), tag.bytes.end(),
              out.begin() + static_cast<size_t>(j) * MacTag::kSize);
    ++charged;
  }
  if (cpu != nullptr) {
    cpu->Charge(static_cast<SimTime>(charged) * model_->MacCost(content.size()));
  }
  return out;
}

bool AuthContext::VerifyAuthenticator(NodeId sender, ByteView content, ByteView auth,
                                      CpuMeter* cpu) const {
  if (cpu != nullptr) {
    cpu->Charge(model_->MacCost(content.size()));
  }
  return VerifyAuthenticatorSlot(sender, self_, content, auth);
}

bool AuthContext::VerifyAuthenticatorSlot(NodeId sender, NodeId slot_owner, ByteView content,
                                          ByteView auth) const {
  if (!config_->IsReplicaMember(slot_owner)) {
    return false;
  }
  size_t offset = static_cast<size_t>(config_->ReplicaIndex(slot_owner)) * MacTag::kSize;
  if (auth.size() < offset + MacTag::kSize) {
    return false;
  }
  MacTag expected = ComputeMac(MacStateFor(sender, slot_owner), content);
  MacTag got;
  std::copy(auth.begin() + offset, auth.begin() + offset + MacTag::kSize, got.bytes.begin());
  return MacEqual(expected, got);
}

InlineBytes AuthContext::GenerateMac(NodeId dst, ByteView content, CpuMeter* cpu) const {
  if (cpu != nullptr) {
    cpu->Charge(model_->MacCost(content.size()));
  }
  return InlineBytes(ComputeMac(MacStateFor(self_, dst), content).View());
}

bool AuthContext::VerifyMac(NodeId sender, ByteView content, ByteView auth, CpuMeter* cpu) const {
  if (cpu != nullptr) {
    cpu->Charge(model_->MacCost(content.size()));
  }
  if (auth.size() != MacTag::kSize) {
    return false;
  }
  MacTag expected = ComputeMac(MacStateFor(sender, self_), content);
  MacTag got;
  std::copy(auth.begin(), auth.end(), got.bytes.begin());
  return MacEqual(expected, got);
}

Bytes AuthContext::GenerateSignature(ByteView content, CpuMeter* cpu) const {
  if (cpu != nullptr) {
    cpu->Charge(model_->SignCost());
  }
  return private_key_->Sign(content).bytes;
}

bool AuthContext::VerifySignature(NodeId sender, ByteView content, ByteView auth,
                                  CpuMeter* cpu) const {
  if (cpu != nullptr) {
    cpu->Charge(model_->SigVerifyCost());
  }
  Signature sig;
  sig.bytes.assign(auth.begin(), auth.end());
  return directory_->Verify(sender, content, sig);
}

}  // namespace bft
