#include "src/shard/migration.h"

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>

#include "src/service/service.h"

namespace bft {

namespace {
bool IsOk(ByteView result) { return Equal(result, ToBytes("ok")); }

// Phase slots of the kMigration timeline (see TracePhaseLabel).
constexpr int kTraceFreeze = 0;
constexpr int kTraceSeal = 1;
constexpr int kTraceExport = 2;
constexpr int kTraceImport = 3;
constexpr int kTracePublish = 4;
constexpr int kTraceComplete = 5;
}  // namespace

MigrationCoordinator::MigrationCoordinator(ShardedCluster* cluster)
    : cluster_(cluster), client_(cluster->AddAdminClient()) {
  MetricsRegistry& registry = cluster_->metrics();
  obs_.moves_ok = registry.GetCounter("bft_migration_moves_ok_total");
  obs_.moves_failed = registry.GetCounter("bft_migration_moves_failed_total");
  obs_.rollbacks = registry.GetCounter("bft_migration_rollbacks_total");
  obs_.keys_moved = registry.GetCounter("bft_migration_keys_moved_total");
  obs_.publishes = registry.GetCounter("bft_migration_publishes_total");
  obs_.freeze_window_us = registry.GetHistogram("bft_migration_freeze_window_us");
}

void MigrationCoordinator::StampTrace(int phase) {
  if (trace_id_ != 0) {
    cluster_->tracer().StampAdmin(TraceKind::kMigration, trace_id_, phase,
                                  cluster_->sim().Now());
  }
}

void MigrationCoordinator::StartMoveBuckets(std::span<const uint32_t> buckets,
                                            size_t dest_shard, BatchDoneCallback done,
                                            SimTime deadline) {
  if (active_) {
    std::fprintf(stderr, "MigrationCoordinator: migration already active\n");
    std::abort();
  }
  const ShardMap& map = cluster_->registry().current();
  if (dest_shard >= map.num_shards()) {
    std::fprintf(stderr, "MigrationCoordinator: invalid batch destination shard %zu\n",
                 dest_shard);
    std::abort();
  }

  breport_ = BatchMoveReport{};
  breport_.dest_shard = dest_shard;
  breport_.map_version_before = map.version();
  breport_.map_version_after = map.version();
  bdone_ = std::move(done);
  batch_.clear();
  src_cursor_ = dst_cursor_ = rollback_cursor_ = purge_cursor_ = 0;
  purge_list_.clear();
  src_busy_ = dst_busy_ = batch_failed_ = batch_aborted_ = resolving_ = false;
  rollback_waiting_on_dest_ = false;
  purge_ok_ = true;

  auto finish_now = [this]() {
    if (bdone_) {
      BatchDoneCallback cb = std::move(bdone_);
      bdone_ = nullptr;
      cb(breport_);
    }
  };

  for (uint32_t bucket : buckets) {
    if (bucket >= ShardMap::kNumBuckets) {
      std::fprintf(stderr, "MigrationCoordinator: invalid bucket %u in batch\n", bucket);
      std::abort();
    }
    bool seen = false;
    for (uint32_t b : breport_.requested) {
      seen |= b == bucket;
    }
    if (seen) {
      continue;
    }
    breport_.requested.push_back(bucket);
    if (map.ShardForBucket(bucket) == dest_shard) {
      breport_.skipped.push_back(bucket);  // already home: issues nothing
      continue;
    }
    BucketMove move;
    move.bucket = bucket;
    move.source = map.ShardForBucket(bucket);
    batch_.push_back(std::move(move));
  }

  if (batch_.empty()) {
    // Pure no-op by design: no freeze, no ops, no simulator events — a run containing only
    // no-op batches is byte-identical to one without them (pinned by tests/rebalance_test.cc).
    breport_.ok = true;
    breport_.no_op = true;
    finish_now();
    return;
  }

  if (!cluster_->op_builder()->SealBucketOp(batch_[0].bucket).has_value()) {
    batch_.clear();
    breport_.error = "service does not support migration";
    finish_now();
    return;
  }

  active_ = true;
  breport_.freeze_start = cluster_->sim().Now();
  trace_id_ = cluster_->tracer().enabled() ? cluster_->tracer().NextAdminOpId() : 0;
  StampTrace(kTraceFreeze);
  for (const BucketMove& move : batch_) {
    cluster_->registry().Freeze(move.bucket);
  }
  if (deadline > 0) {
    deadline_event_ = cluster_->sim().Schedule(deadline, [this, epoch = batch_epoch_]() {
      if (epoch == batch_epoch_) {
        OnBatchDeadline();
      }
    });
    deadline_armed_ = true;
  }
  SourceStep();
}

void MigrationCoordinator::InvokeBatch(size_t shard, Bytes op,
                                       std::function<void(Bytes)> then) {
  uint64_t epoch = batch_epoch_;
  client_->endpoint(shard)->Invoke(
      std::move(op), /*read_only=*/false,
      [this, epoch, then = std::move(then)](Bytes result) {
        if (epoch != batch_epoch_) {
          return;  // reply for a batch that already finished (deadline abort)
        }
        then(std::move(result));
      });
}

void MigrationCoordinator::SourceStep() {
  if (!active_ || resolving_ || src_busy_) {
    return;
  }
  if (batch_failed_ || batch_aborted_) {
    MaybeResolve();
    return;
  }
  while (src_cursor_ < batch_.size() && batch_[src_cursor_].stage >= BucketMove::kExported) {
    ++src_cursor_;
  }
  if (src_cursor_ >= batch_.size()) {
    MaybeFinishForward();
    return;
  }
  BucketMove& move = batch_[src_cursor_];
  size_t index = src_cursor_;
  if (move.stage == BucketMove::kPending) {
    src_busy_ = true;
    InvokeBatch(move.source, *cluster_->op_builder()->SealBucketOp(move.bucket),
                [this, index](Bytes result) {
                  src_busy_ = false;
                  if (!IsOk(result)) {
                    BatchFail("seal rejected: " + ToString(result));
                    return;
                  }
                  batch_[index].stage = BucketMove::kSealed;
                  StampTrace(kTraceSeal);
                  SourceStep();
                });
    return;
  }
  // kSealed: export. The certified result is the bucket's entry list at the seal point.
  src_busy_ = true;
  InvokeBatch(move.source, *cluster_->op_builder()->ExportBucketOp(move.bucket),
              [this, index](Bytes blob) {
                src_busy_ = false;
                auto entries = Service::ParseExportedEntries(blob);
                if (!entries.has_value()) {
                  BatchFail("malformed export");
                  return;
                }
                breport_.export_bytes += blob.size();
                batch_[index].entries = std::move(*entries);
                batch_[index].stage = BucketMove::kExported;
                StampTrace(kTraceExport);
                SourceStep();  // the source moves on to the next bucket...
                DestStep();    // ...while the destination starts absorbing this one
              });
}

void MigrationCoordinator::DestStep() {
  if (!active_ || resolving_ || dst_busy_) {
    return;
  }
  if (batch_failed_ || batch_aborted_) {
    MaybeResolve();
    return;
  }
  while (dst_cursor_ < batch_.size() && batch_[dst_cursor_].stage >= BucketMove::kImported) {
    ++dst_cursor_;
  }
  if (dst_cursor_ >= batch_.size()) {
    MaybeFinishForward();
    return;
  }
  BucketMove& move = batch_[dst_cursor_];
  size_t index = dst_cursor_;
  if (move.stage < BucketMove::kExported) {
    return;  // waiting on the source chain; the export completion re-kicks us
  }
  if (move.stage == BucketMove::kExported) {
    dst_busy_ = true;
    move.dest_touched = true;
    InvokeBatch(breport_.dest_shard, *cluster_->op_builder()->AcceptBucketOp(move.bucket),
                [this, index](Bytes result) {
                  dst_busy_ = false;
                  if (!IsOk(result)) {
                    BatchFail("accept rejected: " + ToString(result));
                    return;
                  }
                  batch_[index].stage = BucketMove::kAccepted;
                  DestStep();
                });
    return;
  }
  // kAccepted: import entries one ordered op at a time.
  if (move.next_entry >= move.entries.size()) {
    move.stage = BucketMove::kImported;
    breport_.keys_moved += move.entries.size();
    StampTrace(kTraceImport);
    DestStep();
    return;
  }
  const auto& [key, blob] = move.entries[move.next_entry];
  ++move.next_entry;
  dst_busy_ = true;
  InvokeBatch(breport_.dest_shard, *cluster_->op_builder()->ImportEntryOp(key, blob),
              [this, index](Bytes result) {
                dst_busy_ = false;
                if (!IsOk(result)) {
                  BatchFail("import rejected: " + ToString(result));
                  return;
                }
                DestStep();
              });
}

void MigrationCoordinator::MaybeFinishForward() {
  if (src_busy_ || dst_busy_ || resolving_) {
    return;
  }
  std::vector<uint32_t> done;
  for (const BucketMove& move : batch_) {
    if (move.stage != BucketMove::kImported) {
      return;  // still in flight somewhere
    }
    done.push_back(move.bucket);
  }
  BatchPublish(std::move(done));
}

void MigrationCoordinator::BatchPublish(std::vector<uint32_t> buckets) {
  // The publish is the point of no return: ownership moves now, so the deadline must never
  // fire afterwards — an abort during the purge phase would "roll back" buckets whose
  // clients already cut over, un-sealing half-purged source copies.
  if (deadline_armed_) {
    cluster_->sim().Cancel(deadline_event_);
    deadline_armed_ = false;
  }
  // The amortized cut-over: ONE version bump reassigns every fully-imported bucket and lifts
  // every freeze; queued client ops re-dispatch under the new map in a single notification
  // sweep instead of once per bucket.
  cluster_->registry().Publish(
      cluster_->registry().current().WithBucketsMoved(buckets, breport_.dest_shard));
  ++breport_.publishes;
  breport_.publish_time = cluster_->sim().Now();
  breport_.map_version_after = cluster_->registry().version();
  StampTrace(kTracePublish);
  breport_.moved = std::move(buckets);

  purge_list_.clear();
  for (size_t i = 0; i < batch_.size(); ++i) {
    if (batch_[i].stage == BucketMove::kImported) {
      purge_list_.push_back(i);
    }
  }
  purge_cursor_ = 0;
  PurgeStep();
}

void MigrationCoordinator::PurgeStep() {
  if (purge_cursor_ >= purge_list_.size()) {
    breport_.ok = purge_ok_ && breport_.error.empty();
    FinishBatch();
    return;
  }
  const BucketMove& move = batch_[purge_list_[purge_cursor_]];
  ++purge_cursor_;
  InvokeBatch(move.source, *cluster_->op_builder()->PurgeBucketOp(move.bucket),
              [this](Bytes result) {
                if (!IsOk(result)) {
                  // Post-publish failure: clients already cut over and the data moved; only
                  // source-side space reclamation failed. Keep purging the rest.
                  purge_ok_ = false;
                  if (breport_.error.empty()) {
                    breport_.error = "purge rejected: " + ToString(result);
                  }
                }
                PurgeStep();
              });
}

void MigrationCoordinator::BatchFail(std::string error) {
  if (breport_.error.empty()) {
    breport_.error = std::move(error);
  }
  batch_failed_ = true;
  MaybeResolve();
}

void MigrationCoordinator::OnBatchDeadline() {
  if (!active_) {
    return;
  }
  batch_aborted_ = true;
  if (breport_.error.empty()) {
    breport_.error = "batch deadline exceeded; unpublished buckets rolled back at their sources";
  }
  if (resolving_) {
    // A failure-triggered rollback is in flight. Either way the rollback must now rescan
    // from the start: buckets skipped as "finished" before the abort (fully imported,
    // awaiting the partial publish) must roll back too — their import landed in a group
    // presumed dead, and nothing will be published.
    rollback_cursor_ = 0;
    if (rollback_waiting_on_dest_) {
      // Stuck on a destination-side cleanup op (the destination died after rejecting one):
      // orphan that chain — bump the round so its late replies are dropped — and re-drive;
      // with the abort flag set the rollback skips all remaining destination work and
      // finishes source-side, so the freezes still lift.
      ++resolve_round_;
      rollback_waiting_on_dest_ = false;
      RollbackStep();
    }
    // Otherwise it is waiting on a source-side op: that chain is progressing, and its reply
    // re-enters RollbackStep, which rescans from the reset cursor under the abort rules.
    return;
  }
  MaybeResolve();
}

void MigrationCoordinator::MaybeResolve() {
  if (resolving_) {
    return;
  }
  // A service-level failure waits for both chains to drain (their endpoints answer, and the
  // rollback reuses them). A deadline abort only waits for the *source* side: the
  // destination is presumed unreachable — its in-flight op may never complete — and no
  // destination-side ops are issued during an aborted rollback.
  if (src_busy_ || (!batch_aborted_ && dst_busy_)) {
    return;
  }
  resolving_ = true;
  rollback_cursor_ = 0;
  RollbackStep();
}

void MigrationCoordinator::RollbackStep() {
  while (rollback_cursor_ < batch_.size()) {
    BucketMove& move = batch_[rollback_cursor_];
    if (move.stage == BucketMove::kRolledBack) {
      ++rollback_cursor_;  // already handled (a deadline re-drive rescans from the start)
      continue;
    }
    // Aborted batches publish nothing: even fully-imported buckets roll back (their data
    // still lives sealed at the source; the destination copy is unreachable garbage).
    bool finished = !batch_aborted_ && move.stage == BucketMove::kImported;
    if (finished) {
      ++rollback_cursor_;
      continue;
    }
    size_t index = rollback_cursor_;
    // Rollback replies are additionally guarded by the resolve round: a deadline firing
    // while a destination-side cleanup hangs orphans that chain and re-drives the rollback
    // source-side; the orphaned reply, should it ever arrive, must not double-step it.
    uint64_t round = resolve_round_;
    if (move.dest_touched && !batch_aborted_) {
      // Discard partial imports and re-seal the destination (stragglers must see the
      // stale-owner signal, not a miss), then un-seal the source.
      rollback_waiting_on_dest_ = true;
      InvokeBatch(breport_.dest_shard, *cluster_->op_builder()->PurgeBucketOp(move.bucket),
                  [this, index, round](Bytes) {
                    if (round != resolve_round_) {
                      return;
                    }
                    InvokeBatch(breport_.dest_shard,
                                *cluster_->op_builder()->SealBucketOp(batch_[index].bucket),
                                [this, index, round](Bytes) {
                                  if (round != resolve_round_) {
                                    return;
                                  }
                                  rollback_waiting_on_dest_ = false;
                                  batch_[index].dest_touched = false;
                                  // No cursor arithmetic here: the loop re-examines the
                                  // bucket (now destination-clean) and un-seals its source.
                                  RollbackStep();
                                });
                  });
      return;
    }
    if (move.stage == BucketMove::kSealed || move.stage == BucketMove::kExported ||
        move.stage == BucketMove::kAccepted || move.stage == BucketMove::kImported) {
      // Un-seal the source so it serves the bucket again. The un-seal is marker-only: the
      // source's bucket data is live and must survive (accept would purge it — accept is the
      // destination-side "prepare to receive"). No cursor arithmetic in the reply: marking
      // the bucket kRolledBack and rescanning lets a deadline that fired meanwhile reset the
      // cursor safely (the loop skips finished rollbacks).
      rollback_waiting_on_dest_ = false;
      InvokeBatch(move.source, *cluster_->op_builder()->UnsealBucketOp(move.bucket),
                  [this, index, round](Bytes) {
                    if (round != resolve_round_) {
                      return;
                    }
                    batch_[index].stage = BucketMove::kRolledBack;
                    breport_.rolled_back.push_back(batch_[index].bucket);
                    RollbackStep();
                  });
      return;
    }
    // kPending: nothing was issued for this bucket; only its freeze needs lifting.
    move.stage = BucketMove::kRolledBack;
    breport_.rolled_back.push_back(move.bucket);
    ++rollback_cursor_;
  }
  ResolveFinish();
}

void MigrationCoordinator::ResolveFinish() {
  std::vector<uint32_t> finished;
  for (const BucketMove& move : batch_) {
    if (!batch_aborted_ && move.stage == BucketMove::kImported) {
      finished.push_back(move.bucket);
    }
  }
  if (!finished.empty()) {
    // Per-bucket resolution: the finished buckets still cut over (their single publish also
    // lifts the rolled-back buckets' freezes — those route back to their now-unsealed
    // sources), then reclaim their source-side space. ok stays false: the batch as
    // requested did not complete.
    BatchPublish(std::move(finished));
    return;
  }
  for (const BucketMove& move : batch_) {
    cluster_->registry().Unfreeze(move.bucket);
  }
  FinishBatch();
}

void MigrationCoordinator::FinishBatch() {
  breport_.completed_time = cluster_->sim().Now();
  StampTrace(kTraceComplete);
  trace_id_ = 0;
  if (!breport_.no_op) {
    obs_.moves_ok->Inc(breport_.moved.size());
    obs_.rollbacks->Inc(breport_.rolled_back.size());
    if (!breport_.ok) {
      obs_.moves_failed->Inc();
    }
    obs_.keys_moved->Inc(breport_.keys_moved);
    obs_.publishes->Inc(breport_.publishes);
    obs_.freeze_window_us->Record(
        static_cast<uint64_t>(breport_.freeze_window() / kMicrosecond));
  }
  if (deadline_armed_) {
    cluster_->sim().Cancel(deadline_event_);
    deadline_armed_ = false;
  }
  active_ = false;
  batch_.clear();
  ++batch_epoch_;
  if (bdone_) {
    BatchDoneCallback cb = std::move(bdone_);
    bdone_ = nullptr;
    cb(breport_);
  }
}

BatchMoveReport MigrationCoordinator::MoveBuckets(std::span<const uint32_t> buckets,
                                                  size_t dest_shard, SimTime timeout,
                                                  SimTime deadline) {
  // Shared, not stack-captured: on timeout the coordinator still holds the done callback,
  // which may fire during a later simulator run after this frame is gone.
  auto result = std::make_shared<std::optional<BatchMoveReport>>();
  StartMoveBuckets(buckets, dest_shard,
                   [result](const BatchMoveReport& r) { *result = r; }, deadline);
  cluster_->sim().RunUntilCondition([result]() { return result->has_value(); },
                                    cluster_->sim().Now() + timeout);
  if (!result->has_value()) {
    BatchMoveReport out = breport_;
    out.ok = false;
    out.error = "timeout: batch migration still in flight";
    return out;
  }
  return **result;
}

}  // namespace bft
