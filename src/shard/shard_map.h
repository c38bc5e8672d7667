// Versioned partition of the key space over S independent PBFT replica groups.
//
// Keys are hashed onto a fixed ring of buckets (common/key_ring.h); each bucket is owned by
// one shard (replica group). The bucket->shard assignment is an explicit, versioned artifact
// rather than a bare `hash % S`: the reconfiguration protocol (src/shard/migration.h)
// republishes the map with individual buckets reassigned (and a bumped version) without
// changing how clients compute buckets, so only the moved buckets' data has to migrate. With
// the default assignment and S = 1 every key maps to shard 0, degenerating to the
// single-group system.
//
// ShardMapRegistry is the publication point: the harness-side stand-in for the config
// service a deployment would run. It holds the current map, the transient frozen-bucket set
// a migration is operating on, and notifies subscribed routers when either changes so queued
// operations re-dispatch.
#ifndef SRC_SHARD_SHARD_MAP_H_
#define SRC_SHARD_SHARD_MAP_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/key_ring.h"
#include "src/common/thread_annotations.h"

namespace bft {

class ShardMap {
 public:
  // Ring geometry (see KeyRing). Kept as a member alias so existing callers read naturally.
  static constexpr uint32_t kNumBuckets = KeyRing::kNumBuckets;

  // Builds version 1 with the default round-robin assignment: bucket b -> b % num_shards.
  explicit ShardMap(size_t num_shards);

  // Builds an explicit assignment (reconfiguration path). `owner[b]` is the shard owning
  // bucket b; must have kNumBuckets entries, each < num_shards.
  ShardMap(size_t num_shards, uint64_t version, std::vector<uint32_t> owner);

  size_t num_shards() const { return num_shards_; }
  uint64_t version() const { return version_; }

  // Stable 64-bit key hash; identical across runs, seeds, and processes.
  static uint64_t HashKey(ByteView key) { return KeyRing::HashKey(key); }

  uint32_t BucketForKey(ByteView key) const { return KeyRing::BucketForKey(key); }
  size_t ShardForBucket(uint32_t bucket) const { return owner_[bucket]; }
  size_t ShardForKey(ByteView key) const { return owner_[BucketForKey(key)]; }

  // Buckets currently owned by `shard` (diagnostics and migration planning).
  std::vector<uint32_t> BucketsOf(size_t shard) const;

  // Derives the next version with every listed bucket reassigned (the reconfiguration
  // primitive the migration coordinator publishes once the buckets' data has moved): one
  // version bump, so a batched migration amortizes the publish (and the routers' re-dispatch
  // churn) over the whole bucket set.
  ShardMap WithBucketsMoved(const std::vector<uint32_t>& buckets, size_t new_shard) const;

  // Wire form, so a map version can be shipped to clients / other processes and swapped in
  // atomically: [version u64][num_shards u32][owner u16 x kNumBuckets].
  Bytes Encode() const;
  // Defensive decode (Byzantine senders may ship arbitrary bytes): nullopt on any malformed
  // input — wrong length, out-of-range owner, zero shards.
  static std::optional<ShardMap> Decode(ByteView raw);

  bool operator==(const ShardMap& other) const {
    return num_shards_ == other.num_shards_ && version_ == other.version_ &&
           owner_ == other.owner_;
  }

 private:
  size_t num_shards_;
  uint64_t version_;
  std::vector<uint32_t> owner_;  // bucket -> shard
};

// The shard-map publication point shared by every router client of one deployment.
//
// Single-writer: one migration coordinator freezes buckets and publishes new versions; many
// ShardedClients read the current map per operation and subscribe for change notifications.
// Old map versions are retained so a `const ShardMap&` held across a publish never dangles
// (the memory cost is one owner table per reconfiguration). The internal lock makes reads
// and publishes safe from any thread; listeners run with the lock DROPPED (they re-dispatch
// queued operations, which may synchronously complete and call Subscribe back in).
class ShardMapRegistry {
 public:
  explicit ShardMapRegistry(ShardMap initial);

  // The latest published map. The reference stays valid for the registry's lifetime (old
  // versions are never destroyed, so it remains safe to use after the lock drops).
  const ShardMap& current() const {
    MutexLock lock(mu_);
    return *maps_.back();
  }
  uint64_t version() const { return current().version(); }

  // --- Migration freeze window ---------------------------------------------------------------
  // While a bucket is frozen, routers queue new operations against it instead of dispatching;
  // the queue drains when the freeze lifts (Publish after a completed move, or Unfreeze after
  // an aborted one).
  bool IsFrozen(uint32_t bucket) const {
    MutexLock lock(mu_);
    return frozen_.count(bucket) != 0;
  }
  size_t FrozenCount() const {
    MutexLock lock(mu_);
    return frozen_.size();
  }
  void Freeze(uint32_t bucket);
  void Unfreeze(uint32_t bucket);

  // Atomically swaps in `next` (its version must be newer) and lifts every freeze.
  void Publish(ShardMap next);

  // `listener` runs after every Publish or Unfreeze (i.e., whenever queued operations may be
  // eligible for re-dispatch). Listeners must outlive the registry or never be destroyed
  // first — ShardedCluster owns both registry and clients, satisfying this.
  void Subscribe(std::function<void()> listener);

 private:
  // Runs every listener with mu_ released — a listener may re-enter Subscribe (or even
  // Publish) synchronously, so holding the lock across the callback would self-deadlock.
  void NotifyAll() BFT_EXCLUDES(mu_);

  mutable Mutex mu_;
  // All versions, oldest first.
  std::vector<std::unique_ptr<const ShardMap>> maps_ BFT_GUARDED_BY(mu_);
  std::set<uint32_t> frozen_ BFT_GUARDED_BY(mu_);
  std::vector<std::function<void()>> listeners_ BFT_GUARDED_BY(mu_);
};

}  // namespace bft

#endif  // SRC_SHARD_SHARD_MAP_H_
