// Replicated service interface (the paper's upcalls, Section 6.2).
//
// A service is a deterministic state machine: Execute()'s result and state mutations must be
// fully determined by (current state, client, op, ndet). All mutable service state must live
// in the ReplicaState page memory and be announced with Modify() before writes (Byz_modify),
// which is what makes checkpointing, rollback, and state transfer work.
#ifndef SRC_SERVICE_SERVICE_H_
#define SRC_SERVICE_SERVICE_H_

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/common/bytes.h"
#include "src/core/clock.h"
#include "src/core/messages.h"
#include "src/core/state.h"

namespace bft {

// Observer for executed keyed operations (the rebalancer's raw signal; src/shard/bucket_stats.h
// implements it). Fed from inside Service::Execute, so it must be cheap — counter increments,
// no allocation — and it must never influence execution: it is a pure observer outside the
// replicated state machine. Implementations tolerate over-counting: tentative executions
// rolled back by a view change re-execute, and only approximate load is needed.
class BucketStatsSink {
 public:
  virtual ~BucketStatsSink() = default;

  // One keyed op executed against `bucket` (common/key_ring.h geometry). `op_bytes` is the
  // encoded operation size; `resident_delta` the change in stored payload bytes the op caused
  // (positive for inserts/growth, negative for deletes/shrink, 0 for reads).
  virtual void RecordKeyedOp(uint32_t bucket, size_t op_bytes, int64_t resident_delta) = 0;
};

class Service {
 public:
  virtual ~Service() = default;

  // Binds the service to the replica's state memory and initializes its data structures.
  // Called exactly once, before any Execute().
  virtual void Initialize(ReplicaState* state) = 0;

  // Executes one operation. `ndet` is the batch's agreed non-deterministic value (Section 5.4).
  // `read_only` is true only for requests that passed IsReadOnly().
  virtual Bytes Execute(NodeId client, ByteView op, ByteView ndet, bool read_only) = 0;

  // Service-specific check that an operation really is read-only (the paper's upcall guarding
  // the read-only optimization against faulty clients, Section 5.1.3).
  virtual bool IsReadOnly(ByteView op) const { return false; }

  // Sharding upcall (src/shard/): the key `op` addresses, when the service's operations are
  // keyed. The shard router uses it to map an op onto its owning replica group. nullopt means
  // the operation is unkeyed; routers send such ops to a designated default shard.
  virtual std::optional<Bytes> KeyOf(ByteView op) const { return std::nullopt; }

  // Admin classification: operations that reconfigure or introspect the service's control
  // plane (bucket migration MIG_*, rebalance stats REB_*) rather than serve data. The replica
  // rejects admin ops from clients outside the admin id range with AccessDeniedResult()
  // before Execute() runs; see kAdminIdBase.
  virtual bool IsAdminOp(ByteView op) const { return false; }

  // Installs the keyed-op load observer (nullptr detaches). Harness-side wiring: the sharded
  // cluster points exactly one replica's service per group at the shared BucketStatsRegistry
  // so each executed client op is counted once, not once per replica.
  void set_stats_sink(BucketStatsSink* sink) { stats_sink_ = sink; }
  BucketStatsSink* stats_sink() const { return stats_sink_; }

  // --- Keyed-state migration upcalls (driven by src/shard/migration.h) ---------------------
  // A keyed service may support live bucket migration: its keyed entries partition onto the
  // canonical ring (common/key_ring.h), and the migration coordinator moves one bucket's
  // entries between replica groups *through the ordered pipeline* — every migration step is a
  // regular replicated operation, so all correct replicas of a group apply it at the same
  // sequence number and reply certificates form as usual. The Op builders below return the
  // operation bytes for each step, or nullopt if the service does not support migration.
  //
  // The protocol a supporting service must implement in Execute():
  //   SealBucketOp(b)    — mark bucket b moved-out. From then on, ops whose key falls in b
  //                        return StaleOwnerResult() instead of executing (the stale-map
  //                        signal routers re-route on). The marker is replicated state: it
  //                        must live in ReplicaState memory so checkpoints, rollback, and
  //                        state transfer cover it.
  //   ExportBucketOp(b)  — result is the bucket's entries in the ParseExportedEntries()
  //                        format, enumerated in a deterministic, state-defined order (so the
  //                        result certifies across replicas). Seal/export themselves are
  //                        exempt from the moved check.
  //   AcceptBucketOp(b)  — prepare to receive bucket b at the destination: drop any stale
  //                        local entries for b (leftovers of an earlier aborted move would
  //                        otherwise survive the re-import and resurrect deleted keys) and
  //                        clear any moved-out marker. Run before imports.
  //   UnsealBucketOp(b)  — clear the moved-out marker ONLY (no purge): the rollback path
  //                        un-seals the *source*, whose bucket data is live and must stay.
  //   ImportEntryOp(k,v) — install one exported entry in the destination group.
  //   PurgeBucketOp(b)   — drop bucket b's (sealed, already-exported) entries from local
  //                        state; space hygiene on the source after the move publishes.
  //
  // Trust: these are admin ops (IsAdminOp), so they execute only for clients in the reserved
  // admin id range (IsAdminClient, ids >= kAdminIdBase). The replica checks this before
  // Execute() runs, both when a batch executes and on the read-only path, and answers any
  // other client with AccessDeniedResult(); the op is still ordered, so every correct
  // replica denies it identically and the client gets a certified error. A Byzantine
  // regular client therefore cannot seal, purge, or move a bucket. The admin principal
  // itself is trusted: a faulty admin client can still misdirect a migration.
  virtual std::optional<Bytes> SealBucketOp(uint32_t bucket) const { return std::nullopt; }
  virtual std::optional<Bytes> ExportBucketOp(uint32_t bucket) const { return std::nullopt; }
  virtual std::optional<Bytes> AcceptBucketOp(uint32_t bucket) const { return std::nullopt; }
  virtual std::optional<Bytes> UnsealBucketOp(uint32_t bucket) const { return std::nullopt; }
  virtual std::optional<Bytes> ImportEntryOp(ByteView key, ByteView blob) const {
    return std::nullopt;
  }
  virtual std::optional<Bytes> PurgeBucketOp(uint32_t bucket) const { return std::nullopt; }

  // Direct state views backing tests and migration verification (not part of the ordered
  // protocol): the keys currently present in `bucket`, and one entry's exported blob.
  virtual std::vector<Bytes> EnumerateBucket(uint32_t bucket) const { return {}; }
  virtual std::optional<Bytes> ExportEntry(ByteView key) const { return std::nullopt; }

  // Reserved Execute() result meaning "this key's bucket has migrated away; the sender's
  // shard map is stale". Routers (ShardedClient) intercept it and re-route instead of
  // delivering it. Limitation, documented: a service value byte-identical to the marker is
  // indistinguishable from it — real deployments would tag replies out of band.
  static ByteView StaleOwnerResult();
  static bool IsStaleOwnerResult(ByteView result);

  // Reserved Execute()-level reply for an admin op issued by a non-admin client (the clean
  // error the ACL check returns instead of executing). Printable on purpose: callers surface
  // it to operators verbatim.
  static ByteView AccessDeniedResult();
  static bool IsAccessDeniedResult(ByteView result);

  // Export wire format shared by every migrating service:
  //   [count u32] then per entry [key var][blob var].
  // Returns nullopt on malformed input (defensive: certificates make forgery moot, but the
  // decoder never trusts lengths).
  static std::optional<std::vector<std::pair<Bytes, Bytes>>> ParseExportedEntries(
      ByteView blob);

  // Primary upcall: propose the non-deterministic value for the batch at `seq` (Section 5.4).
  virtual Bytes ChooseNonDet(SeqNo seq, SimTime now) { return {}; }

  // Backup upcall: deterministically check the primary's proposed value.
  virtual bool CheckNonDet(ByteView ndet, SimTime now) const { return true; }

  // Simulated CPU cost of executing `op` (charged to the replica's meter).
  virtual SimTime ExecutionCost(ByteView op) const { return 2 * kMicrosecond; }

 private:
  BucketStatsSink* stats_sink_ = nullptr;
};

}  // namespace bft

#endif  // SRC_SERVICE_SERVICE_H_
