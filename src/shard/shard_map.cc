#include "src/shard/shard_map.h"

#include <cstdio>
#include <cstdlib>

#include "src/common/serializer.h"

namespace bft {

namespace {
// Map invariants hold in every build mode (NDEBUG included): a malformed map silently
// misroutes keys, which no downstream check would catch.
void Require(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "ShardMap: invalid map: %s\n", what);
    std::abort();
  }
}
}  // namespace

ShardMap::ShardMap(size_t num_shards) : num_shards_(num_shards), version_(1) {
  Require(num_shards_ >= 1, "num_shards must be >= 1");
  owner_.resize(kNumBuckets);
  for (uint32_t b = 0; b < kNumBuckets; ++b) {
    owner_[b] = static_cast<uint32_t>(b % num_shards_);
  }
}

ShardMap::ShardMap(size_t num_shards, uint64_t version, std::vector<uint32_t> owner)
    : num_shards_(num_shards), version_(version), owner_(std::move(owner)) {
  Require(num_shards_ >= 1, "num_shards must be >= 1");
  Require(owner_.size() == kNumBuckets, "owner vector must cover every bucket");
  for (uint32_t shard : owner_) {
    Require(shard < num_shards_, "bucket owned by out-of-range shard");
  }
}

std::vector<uint32_t> ShardMap::BucketsOf(size_t shard) const {
  std::vector<uint32_t> out;
  for (uint32_t b = 0; b < kNumBuckets; ++b) {
    if (owner_[b] == shard) {
      out.push_back(b);
    }
  }
  return out;
}

ShardMap ShardMap::WithBucketsMoved(const std::vector<uint32_t>& buckets,
                                    size_t new_shard) const {
  Require(new_shard < num_shards_, "target shard out of range");
  std::vector<uint32_t> owner = owner_;
  for (uint32_t bucket : buckets) {
    Require(bucket < kNumBuckets, "bucket out of range");
    owner[bucket] = static_cast<uint32_t>(new_shard);
  }
  return ShardMap(num_shards_, version_ + 1, std::move(owner));
}

Bytes ShardMap::Encode() const {
  Writer w(8 + 4 + 2 * kNumBuckets);
  w.U64(version_);
  w.U32(static_cast<uint32_t>(num_shards_));
  for (uint32_t owner : owner_) {
    w.U16(static_cast<uint16_t>(owner));
  }
  return w.Take();
}

std::optional<ShardMap> ShardMap::Decode(ByteView raw) {
  Reader r(raw);
  uint64_t version = r.U64();
  uint32_t num_shards = r.U32();
  // A 16-bit owner field caps the shard count; anything larger is malformed by construction.
  if (num_shards == 0 || num_shards > 0xffff) {
    return std::nullopt;
  }
  std::vector<uint32_t> owner(kNumBuckets);
  for (uint32_t b = 0; b < kNumBuckets; ++b) {
    owner[b] = r.U16();
    if (owner[b] >= num_shards) {
      return std::nullopt;
    }
  }
  if (!r.ok() || !r.AtEnd()) {
    return std::nullopt;
  }
  return ShardMap(num_shards, version, std::move(owner));
}

ShardMapRegistry::ShardMapRegistry(ShardMap initial) {
  maps_.push_back(std::make_unique<const ShardMap>(std::move(initial)));
}

void ShardMapRegistry::Freeze(uint32_t bucket) {
  MutexLock lock(mu_);
  frozen_.insert(bucket);
}

void ShardMapRegistry::Unfreeze(uint32_t bucket) {
  {
    MutexLock lock(mu_);
    if (frozen_.erase(bucket) == 0) {
      return;
    }
  }
  NotifyAll();
}

void ShardMapRegistry::Publish(ShardMap next) {
  {
    MutexLock lock(mu_);
    const ShardMap& cur = *maps_.back();
    if (next.version() <= cur.version() || next.num_shards() != cur.num_shards()) {
      std::fprintf(stderr, "ShardMapRegistry: publish of version %llu over %llu rejected\n",
                   static_cast<unsigned long long>(next.version()),
                   static_cast<unsigned long long>(cur.version()));
      std::abort();
    }
    maps_.push_back(std::make_unique<const ShardMap>(std::move(next)));
    frozen_.clear();
  }
  NotifyAll();
}

void ShardMapRegistry::Subscribe(std::function<void()> listener) {
  MutexLock lock(mu_);
  listeners_.push_back(std::move(listener));
}

void ShardMapRegistry::NotifyAll() {
  // Index loop re-checking size under the lock each round, not iterators: a listener
  // re-dispatching a queued operation may complete it synchronously, and the completion may
  // AddClient()/Subscribe(), growing the vector. The copy of the std::function lets the
  // callback run unlocked (it may re-enter this registry).
  for (size_t i = 0;; ++i) {
    std::function<void()> listener;
    {
      MutexLock lock(mu_);
      if (i >= listeners_.size()) {
        break;
      }
      listener = listeners_[i];
    }
    listener();
  }
}

}  // namespace bft
