#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "api/learner.h"
#include "util/status.h"

namespace wmsketch {

/// Ingestion counters of a \ref ShardedLearner. `per_shard` counts are read
/// from the workers' relaxed atomics, so they are exact after a barrier
/// (SyncNow/Collapse) and momentarily approximate while ingestion runs.
struct ShardedLearnerStats {
  /// Examples accepted by Push/PushBatch.
  uint64_t pushed = 0;
  /// Merge-average synchronizations performed so far (periodic + explicit).
  uint64_t syncs = 0;
  /// Examples each worker has trained on.
  std::vector<uint64_t> per_shard;
};

/// Sharded parallel training engine over mergeable learners (the linearity
/// dividend of the Weight-Median Sketch: sketches with equal projection
/// matrices sum, so disjoint-partition models combine into one valid model).
///
/// N worker threads each own a *private* replica of the configured learner,
/// fed through a bounded SPSC ring buffer. The calling thread hash-partitions
/// examples across workers by feature content, so a given example always
/// lands on the same shard regardless of arrival order. Periodically (every
/// `SetSyncInterval` examples, if enabled) all workers are drained and parked
/// while the replicas are merge-averaged and redistributed — one-pass
/// iterative parameter mixing. `Collapse()` performs the final merge-average
/// and returns an ordinary \ref Learner, so snapshots, queries, and
/// serialization work unchanged on the result; with `Shards(1)` the collapsed
/// model is bit-identical to a sequential Learner fed the same stream.
///
/// Merge semantics: each barrier combines the replicas by schedule-matched
/// iterative parameter mixing, w = N^-p * sum(w_i) + (1 - N^(1-p)) * w_base,
/// where every replica started the round as w_base and p follows the
/// learning-rate schedule. The engine mixes round after round from a shared
/// base, so a plain sum (the one-shot combination of disjoint partitions that
/// dist::Aggregator makes) would count w_base N times. The shard count is
/// capped at kMaxShards, the range over which this rule is validated.
///
/// The owner never spins. When a shard's ring is full, Push blocks on a
/// condition variable until that worker has drained a run (up to 64
/// examples) and wakes it; a barrier blocks the same way until every worker
/// has parked. Ring slots are recycled: Push copies an example over the
/// storage a slot already holds, and the worker swaps it out, so steady-state
/// ingestion allocates nothing per example. The cost is memory that stays
/// with the engine: per shard, ring capacity (1024) plus one drain run (64)
/// of example buffers, each up to the size of the largest example seen.
///
/// Threading contract: Push/PushBatch/SyncNow/Collapse/Stats must be called
/// from one thread (the owner); the engine manages its worker threads
/// internally. Construct via LearnerBuilder::BuildSharded().
class ShardedLearner {
 public:
  ShardedLearner(ShardedLearner&&) noexcept;
  ShardedLearner& operator=(ShardedLearner&&) noexcept;
  ShardedLearner(const ShardedLearner&) = delete;
  ShardedLearner& operator=(const ShardedLearner&) = delete;
  /// Stops and joins the workers; un-collapsed training state is discarded.
  ~ShardedLearner();

  /// Copies one example into its shard's queue, and runs a synchronization
  /// first if the sync interval has elapsed. While that queue is full the
  /// caller sleeps until the shard's worker has drained a run. The copy
  /// reuses a recycled slot's storage, so it allocates only when `example`
  /// has more nonzeros than that slot has held before. FailedPrecondition
  /// after Collapse().
  Status Push(const Example& example);

  /// Push() for every example in `batch`, in order.
  Status PushBatch(std::span<const Example> batch);

  /// Explicit barrier: drains every queue, sleeps until every worker has
  /// parked, merge-averages the replicas, redistributes the result, and
  /// resumes. A no-op model-wise for a single shard (still drains).
  /// FailedPrecondition after Collapse().
  Status SyncNow();

  /// Drains and stops the workers, merges the N replicas into one averaged
  /// model with the true global step count, and returns it as an ordinary
  /// \ref Learner. The engine is spent afterwards: further Push/SyncNow/
  /// Collapse calls return FailedPrecondition.
  Result<Learner> Collapse();

  /// Registers a reader with the engine's serving state (see
  /// engine/serving.h) and returns a wait-free \ref ServingHandle. Reader
  /// queries never block ingestion; it is *publication* that needs a
  /// consistent global model, so the engine publishes at every merge
  /// barrier: each periodic/explicit Sync, every ServeEvery(k) pushed
  /// examples (each such publication IS a merge barrier), and the final
  /// Collapse. The first acquisition runs one sync to publish the current
  /// state. Owner-thread call, like Push/SyncNow; FailedPrecondition after
  /// Collapse.
  Result<ServingHandle> AcquireServingHandle();

  /// Explicit barrier that also cuts a checkpoint (requires CheckpointTo on
  /// the builder). Returns the checkpoint write status; like periodic merge-
  /// barrier checkpoints, the model state is the consistent merged view.
  /// Owner-thread call; FailedPrecondition after Collapse.
  Status CheckpointNow();

  /// Outcome of the most recent merge-barrier checkpoint (OK before any).
  /// Periodic checkpoint failures are recorded here, not surfaced from Push:
  /// a full disk must not abort ingestion.
  const Status& last_checkpoint_status() const;

  /// Number of parallel shards (fixed at build time).
  uint32_t shards() const;
  /// Examples between periodic synchronizations (0 = only at Collapse).
  uint64_t sync_interval() const;
  /// Current ingestion counters.
  ShardedLearnerStats Stats() const;

 private:
  friend class LearnerBuilder;

  struct Impl;
  explicit ShardedLearner(std::unique_ptr<Impl> impl);

  std::unique_ptr<Impl> impl_;
};

}  // namespace wmsketch
