// Live bucket migration between sharded replica groups (shard reconfiguration).
//
// The coordinator uses the machinery the versioned ShardMap was built for: moving
// buckets' keyed state from their owning groups to another *while the system serves load*,
// with no operation lost or executed twice. Every step that touches replicated state is a
// regular operation driven through the ordered pipeline (so correct replicas of each group
// apply it at one sequence number, reply certificates form, and view changes / state
// transfer / checkpointing cover migration state like any other state). One state machine
// moves a batch of buckets to one destination; a single-bucket move is a batch of one:
//
//   1. Freeze   — registry_.Freeze(bucket) for every bucket: routers queue *new* ops.
//   2. Seal     — SealBucketOp ordered in the bucket's SOURCE group. Ops on the bucket ordered
//                 after the seal return the stale-owner marker instead of executing, so every
//                 client-visible execution at the source linearizes before the move. In-flight
//                 ops ordered before the seal execute normally and are captured by the export.
//   3. Export   — ExportBucketOp ordered in the source group; its certified result is the
//                 bucket's full entry list at the seal point.
//   4. Accept   — AcceptBucketOp ordered in the DESTINATION group (clears any old moved-out
//                 marker so a bucket can move away and later come back).
//   5. Import   — one ImportEntryOp per exported entry, ordered in the destination group.
//   6. Publish  — registry_.Publish(map.WithBucketsMoved(...)): ONE version bump for every
//                 fully-imported bucket; clients atomically swap to it and queued ops
//                 re-dispatch to the new owner.
//   7. Purge    — PurgeBucketOp ordered in each source group (space hygiene; does not gate
//                 clients, the seal marker keeps stale routes answered).
//
// Steps 2–3 (source side) and 4–5 (destination side) run as two pipelined chains, so the
// source can export bucket k+1 while the destination imports bucket k. On a failed step
// after a seal (service rejects an op, e.g. destination full) or an expired deadline, each
// unfinished bucket rolls back: partial imports are purged from the destination, the source
// is un-sealed, and the freeze lifts, so the bucket keeps being served by its original owner
// under the unchanged assignment with no stray copies elsewhere.
//
// The coordinator is fully event-driven (each step is a client Invoke continuation), so a
// migration can be started from inside a simulator event while closed-loop load runs; the
// synchronous MoveBuckets wrapper drives the simulator until completion for tests.
#ifndef SRC_SHARD_MIGRATION_H_
#define SRC_SHARD_MIGRATION_H_

#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/shard/sharded_cluster.h"

namespace bft {

// Result of a bucket move (MoveBuckets / StartMoveBuckets). The batch amortizes the freeze
// window and the map publish over the whole bucket set: every migrating bucket freezes at
// once, data moves bucket by bucket with the source's exports pipelined against the
// destination's imports (two replica groups working concurrently), and ownership of all
// fully-imported buckets cuts over in exactly ONE ShardMap publish.
//
// Mid-batch failure is resolved per bucket: buckets whose imports completed still publish
// (one publish of the finished set), every unfinished bucket rolls back — partial imports
// purged from the destination, the destination re-sealed, the source un-sealed — and its
// traffic returns to the original owner under the unchanged assignment.
struct BatchMoveReport {
  bool ok = false;
  bool no_op = false;        // every requested bucket was already at the destination
  size_t dest_shard = 0;
  std::vector<uint32_t> requested;    // deduplicated request, in call order
  std::vector<uint32_t> skipped;      // already owned by the destination (issued nothing)
  std::vector<uint32_t> moved;        // published to the destination
  std::vector<uint32_t> rolled_back;  // returned to their sources after a failure/abort
  size_t keys_moved = 0;
  size_t export_bytes = 0;
  uint64_t map_version_before = 0;
  uint64_t map_version_after = 0;
  uint64_t publishes = 0;  // ShardMap publishes this batch performed (1 for any move set)
  SimTime freeze_start = 0;
  SimTime publish_time = 0;
  SimTime completed_time = 0;
  std::string error;  // non-empty iff !ok

  // The window during which client ops against the batch's buckets queued rather than
  // served: until the publish when one happened, else until the rollback lifted the
  // freezes — a deadline-aborted batch froze its buckets for real, and that availability
  // cost must show up in the controller's and the bench's freeze-time accounting.
  SimTime freeze_window() const {
    SimTime end = publish_time >= freeze_start && publish_time != 0 ? publish_time
                                                                    : completed_time;
    return end >= freeze_start ? end - freeze_start : 0;
  }
};

class MigrationCoordinator {
 public:
  using BatchDoneCallback = std::function<void(const BatchMoveReport&)>;

  // Creates the coordinator's own *admin* client (one endpoint per group, ids in the
  // reserved admin range — the only identity replicas accept MIG_* ops from) on `cluster`.
  explicit MigrationCoordinator(ShardedCluster* cluster);

  // Starts moving `buckets` (deduplicated; those already at `dest_shard` are skipped) to one
  // destination group; `done` fires (possibly synchronously, for no-op batches) when the
  // move completes or fails. One batch at a time; a single-bucket move is a batch of one. A
  // batch whose every bucket is already at the destination is a pure no-op: no ops, no
  // freeze, no simulator events — byte-identical to not calling it at all.
  //
  // `deadline` (> 0) bounds the batch in simulated time: if it has not completed, the
  // coordinator aborts — publishing NOTHING and rolling the sealed buckets back at their
  // sources — so a destination group that died mid-batch cannot wedge the key space behind
  // a permanent freeze. Destination-side cleanup is skipped on abort (the destination is
  // presumed unreachable; its endpoint may stay busy retransmitting into the void).
  void StartMoveBuckets(std::span<const uint32_t> buckets, size_t dest_shard,
                        BatchDoneCallback done, SimTime deadline = 0);

  // Synchronous wrapper: StartMoveBuckets + run the simulator until done (or `timeout` of
  // simulated time, which fails the report but leaves the batch running).
  BatchMoveReport MoveBuckets(std::span<const uint32_t> buckets, size_t dest_shard,
                              SimTime timeout = 120 * kSecond, SimTime deadline = 0);

  bool active() const { return active_; }

 private:
  // Two pipelined chains share the admin client: the *source* chain seals and exports bucket
  // after bucket (endpoints of the owning groups), the *destination* chain accepts and
  // imports each bucket as soon as its export lands (the destination group's endpoint).
  // Because every retained bucket's source differs from the destination (same-owner buckets
  // are skipped as no-ops), the chains never contend for an endpoint: the source group can
  // be exporting bucket k+1 while the destination is still importing bucket k.
  struct BucketMove {
    uint32_t bucket = 0;
    size_t source = 0;
    enum Stage { kPending, kSealed, kExported, kAccepted, kImported, kRolledBack } stage =
        kPending;
    std::vector<std::pair<Bytes, Bytes>> entries;
    size_t next_entry = 0;
    bool dest_touched = false;  // accept was issued: rollback must purge + re-seal the dest
  };

  // Orders `op` through the admin client with a batch-epoch guard: replies that arrive after
  // the batch finished (deadline aborts leave ops in flight) are dropped.
  void InvokeBatch(size_t shard, Bytes op, std::function<void(Bytes)> then);
  void SourceStep();
  void DestStep();
  void MaybeFinishForward();
  void BatchPublish(std::vector<uint32_t> buckets);
  void PurgeStep();
  void BatchFail(std::string error);
  void OnBatchDeadline();
  void MaybeResolve();
  void RollbackStep();
  void ResolveFinish();
  void FinishBatch();

  ShardedCluster* cluster_;
  ShardedClient* client_;  // admin endpoints, owned by the cluster
  bool active_ = false;

  // Batch state (valid while a batch is active).
  std::vector<BucketMove> batch_;
  size_t src_cursor_ = 0;
  size_t dst_cursor_ = 0;
  size_t rollback_cursor_ = 0;
  std::vector<size_t> purge_list_;  // batch_ indices awaiting source-side purge
  size_t purge_cursor_ = 0;
  bool src_busy_ = false;
  bool dst_busy_ = false;
  bool batch_failed_ = false;
  bool batch_aborted_ = false;
  bool resolving_ = false;
  bool rollback_waiting_on_dest_ = false;  // the in-flight rollback op targets the dest
  bool purge_ok_ = true;
  uint64_t batch_epoch_ = 0;    // bumped when a batch finishes; guards late replies
  uint64_t resolve_round_ = 0;  // bumped when a deadline orphans a hung rollback chain
  Simulator::EventId deadline_event_ = 0;
  bool deadline_armed_ = false;
  BatchMoveReport breport_;
  BatchDoneCallback bdone_;

  // Admin-op timeline (kind=kMigration): opened at the freeze, retired by FinishBatch; 0
  // while no traced move is active. Milestones record the FIRST time the
  // move reached each stage, so batch phases read as pipeline onsets.
  void StampTrace(int phase);
  uint64_t trace_id_ = 0;

  // Pre-resolved instruments in the cluster's registry; recorded when a batch resolves
  // (FinishBatch), never on the per-op path, so migration metrics cost nothing while
  // data is moving.
  struct Obs {
    Counter* moves_ok = nullptr;
    Counter* moves_failed = nullptr;
    Counter* rollbacks = nullptr;
    Counter* keys_moved = nullptr;
    Counter* publishes = nullptr;
    Histogram* freeze_window_us = nullptr;
  };
  Obs obs_;
};

}  // namespace bft

#endif  // SRC_SHARD_MIGRATION_H_
