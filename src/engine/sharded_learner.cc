#include "engine/sharded_learner.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <thread>
#include <utility>

#include "core/budget.h"
#include "engine/checkpoint.h"
#include "engine/serving.h"
#include "engine/spsc_ring.h"
#include "util/thread_annotations.h"

namespace wmsketch {

namespace {

/// Per-worker queue depth. Deep enough to absorb bursts and keep workers
/// busy across scheduling jitter, small enough that a drain barrier is fast.
constexpr size_t kQueueCapacity = 1024;

/// How many queued examples a worker drains into one UpdateBatch call. The
/// batch path hashes the whole run into the model's per-thread plan arena
/// (one hash per (feature, row) pair, table prefetch across examples), so
/// each shard trains at the single-thread batched rate instead of the
/// per-example rate. Small enough that drain barriers stay prompt. A worker
/// wakes a producer blocked on its full ring at most once per drained run.
constexpr size_t kDrainBatch = 64;

/// Content hash of an example's feature indices (splitmix64-style mixing).
/// Examples are partitioned by feature content, not arrival index, so the
/// shard assignment is a pure function of the example itself.
uint64_t ExampleHash(const SparseVector& x) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (size_t i = 0; i < x.nnz(); ++i) {
    h ^= x.index(i);
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 27;
  }
  h *= 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

/// The decay exponent p of the learning-rate schedule η_t ∝ t^{-p}. With N
/// shards over T examples, one shard's cumulative step mass is
/// Σ_{t≤T/N} η_t ∝ (T/N)^{1-p}, so the N-way *sum* of shard models carries
/// N^p times the step mass of a sequential pass over all T examples. The
/// schedule-matched combination is therefore N^{-p}·Σᵢwᵢ: a plain sum for a
/// constant rate, N^{-1/2}·Σ for the paper's η₀/√t, and the plain average
/// for the Pegasos-style η_t ∝ 1/t. (Empirically on the synthetic
/// classification streams the N^{-1/2} rule recovers within a few percent of
/// the sequential model's top-K error where plain averaging loses 2×.)
double MixingExponent(const LearningRate& rate) {
  switch (rate.kind()) {
    case LearningRate::Kind::kConstant:
      return 0.0;
    case LearningRate::Kind::kInverseSqrt:
      return 0.5;
    case LearningRate::Kind::kInverse:
      return 1.0;
  }
  return 1.0;
}

}  // namespace

struct ShardedLearner::Impl {
  struct Worker {
    Worker() : ring(kQueueCapacity) {}

    SpscRing<Example> ring;
    std::unique_ptr<BudgetedClassifier> model;
    std::thread thread;
    /// Backs the park/sleep protocol only. No data is guarded: the ring is
    /// SPSC-safe on its own and the flags are atomics. The lock exists so a
    /// Wake between an idle worker's final ring check and its wait cannot be
    /// lost — the annotated CondVar still makes clang verify every wait
    /// happens with `mu` held.
    Mutex mu;
    CondVar cv;
    /// Set while this worker waits on `cv` for work.
    std::atomic<bool> sleeping{false};
    /// Set while the owner waits on `owner_cv` for room in this ring.
    std::atomic<bool> owner_waiting{false};
    /// The pause epoch this worker last parked in (0 = never). A worker
    /// counts as parked for barrier k only when this equals k, so a stale
    /// park from barrier k-1 — with examples pushed since still sitting in
    /// the ring — can never satisfy barrier k.
    std::atomic<uint64_t> parked_epoch{0};
    std::atomic<uint64_t> processed{0};
  };

  BudgetConfig config;
  LearnerOptions opts;
  uint32_t shards = 1;
  uint64_t sync_interval = 0;

  std::vector<std::unique_ptr<Worker>> workers;
  std::atomic<bool> stop{false};
  std::atomic<bool> pause{false};
  /// Barrier generation counter; incremented (before `pause` is raised) by
  /// each PauseAll.
  std::atomic<uint64_t> pause_epoch{0};
  /// Where the owner thread blocks: on a full ring (PushTo) and at a barrier
  /// (PauseAll). Workers notify under `owner_mu` after draining a run while
  /// the owner waits on their ring, and whenever they park. Like Worker::mu
  /// it guards no data; it closes the window between the owner's last check
  /// and its wait.
  Mutex owner_mu;
  CondVar owner_cv;

  /// The shared model every replica was reset to at the last sync (null
  /// before the first sync, i.e. the zero model): the subtracted base of the
  /// base-corrected mixing rule below.
  std::unique_ptr<BudgetedClassifier> base;

  // Owner-thread-only bookkeeping.
  uint64_t pushed = 0;
  uint64_t since_sync = 0;
  uint64_t syncs = 0;
  bool collapsed = false;

  // Serving (null until AcquireServingHandle): snapshots are published at
  // merge barriers, where a consistent global model exists.
  std::shared_ptr<ServingState> serving;
  uint64_t serve_every = 0;
  uint64_t since_publish = 0;

  // Checkpointing (null unless CheckpointTo was configured): like serving
  // publications, checkpoints are cut at merge barriers — the only points
  // where a consistent global model exists — and a write failure is recorded
  // rather than aborting ingestion.
  std::shared_ptr<Checkpointer> checkpointer;
  uint64_t checkpoint_every = 0;
  uint64_t since_checkpoint = 0;
  Status last_checkpoint_status;

  // Both hand-offs between the owner and a worker are Dekker handshakes: one
  // side stores its flag and then checks the ring, the other moves the ring
  // cursor and then loads the flag, with a seq_cst fence between each side's
  // two steps. Whichever fence comes first in their total order, the other
  // side's check sees its store, so a wake is never lost and no wait needs a
  // timeout. The waiter holds the mutex from its check until the wait
  // releases it, and the waker notifies under that mutex.

  void WorkerLoop(Worker& w) {
    // Popped examples are swapped into `run`, and the storage `run` held goes
    // back into the ring for the owner to copy the next example over, so in
    // steady state the hand-off allocates nothing on either thread.
    std::array<Example, kDrainBatch> run;
    for (;;) {
      // Drain a run of queued examples and train them through the batched
      // (plan-arena) path. Equivalent to example-by-example updates — the
      // batch path is bit-identical by contract — and the run is fully
      // trained before the idle/park logic below can observe an empty ring.
      size_t n = 0;
      while (n < kDrainBatch && w.ring.TryPop(&run[n])) ++n;
      if (n > 0) {
        std::atomic_thread_fence(std::memory_order_seq_cst);
        if (w.owner_waiting.load(std::memory_order_relaxed)) {
          MutexLock lk(owner_mu);
          owner_cv.NotifyOne();
        }
        w.model->UpdateBatch(std::span<const Example>(run.data(), n));
        w.processed.fetch_add(n, std::memory_order_relaxed);
        continue;
      }
      // Queue empty: park, stop, or sleep until there is work.
      if (stop.load(std::memory_order_acquire)) return;
      if (pause.load(std::memory_order_acquire)) {
        MutexLock lk(w.mu);
        for (;;) {
          if (stop.load(std::memory_order_acquire)) break;
          if (!pause.load(std::memory_order_acquire)) break;
          // Work that arrived after a *previous* barrier's park: leave and
          // drain it before this park can count toward the current barrier.
          if (!w.ring.Empty()) break;
          w.parked_epoch.store(pause_epoch.load(std::memory_order_acquire),
                               std::memory_order_release);
          {
            MutexLock owner_lk(owner_mu);
            owner_cv.NotifyOne();
          }
          w.cv.Wait(w.mu, lk);
        }
        continue;
      }
      MutexLock lk(w.mu);
      w.sleeping.store(true, std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      while (w.ring.Empty() && !stop.load(std::memory_order_acquire) &&
             !pause.load(std::memory_order_acquire)) {
        w.cv.Wait(w.mu, lk);
      }
      w.sleeping.store(false, std::memory_order_relaxed);
    }
  }

  void Wake(Worker& w) {
    // Taking the lock (empty critical section) orders this notify after the
    // worker's flag checks, so a wakeup racing the decision to sleep is
    // observed by the wait and never lost.
    MutexLock lk(w.mu);
    w.cv.NotifyOne();
  }

  /// Copies `example` into `w`'s ring, waking `w` if it sleeps. On a full
  /// ring the owner blocks until `w` has drained a run.
  void PushTo(Worker& w, const Example& example) {
    if (!w.ring.TryPush(example)) {
      MutexLock lk(owner_mu);
      w.owner_waiting.store(true, std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      while (!w.ring.TryPush(example)) owner_cv.Wait(owner_mu, lk);
      w.owner_waiting.store(false, std::memory_order_relaxed);
    }
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (w.sleeping.load(std::memory_order_relaxed)) Wake(w);
  }

  /// Barrier: every queued example is trained and every worker is parked in
  /// *this* barrier's epoch on return. The owner sleeps on `owner_cv` until
  /// then; each worker notifies it as it parks. Must be called from the
  /// owner thread (so no concurrent pushes).
  void PauseAll() {
    // Epoch before pause: a worker that observes pause==true is guaranteed
    // (release/acquire through `pause`) to read at least this epoch.
    const uint64_t epoch = pause_epoch.fetch_add(1, std::memory_order_release) + 1;
    pause.store(true, std::memory_order_release);
    for (auto& w : workers) Wake(*w);
    MutexLock lk(owner_mu);
    while (!std::all_of(workers.begin(), workers.end(), [&](const auto& w) {
      return w->parked_epoch.load(std::memory_order_acquire) == epoch;
    })) {
      owner_cv.Wait(owner_mu, lk);
    }
  }

  void ResumeAll() {
    pause.store(false, std::memory_order_release);
    for (auto& w : workers) Wake(*w);
  }

  /// Combines the (quiescent) replicas with the schedule-matched,
  /// base-corrected mixing rule
  ///
  ///   w ← w_base + N^{-p}·Σᵢ (wᵢ − w_base) = N^{-p}·Σᵢwᵢ + (1 − N^{1-p})·w_base,
  ///
  /// where p is the learning-rate decay exponent (see MixingExponent) and
  /// w_base the shared model the replicas diverged from at the last sync
  /// (zero before the first, collapsing the rule to N^{-p}·Σᵢwᵢ). The result
  /// carries the true global step count. Requires all workers parked or
  /// stopped.
  Result<std::unique_ptr<BudgetedClassifier>> CombineLocked() {
    std::unique_ptr<BudgetedClassifier> acc = workers[0]->model->Clone();
    if (acc == nullptr) {
      return Status::Unimplemented(workers[0]->model->Name() +
                                   " does not support cloning");
    }
    for (size_t i = 1; i < workers.size(); ++i) {
      WMS_RETURN_NOT_OK(acc->MergeScaled(*workers[i]->model, 1.0));
    }
    const double n = static_cast<double>(workers.size());
    const double p = MixingExponent(opts.rate);
    WMS_RETURN_NOT_OK(acc->ScaleWeights(std::pow(n, -p)));
    const double base_coeff = 1.0 - std::pow(n, 1.0 - p);
    if (base != nullptr && base_coeff != 0.0) {
      WMS_RETURN_NOT_OK(acc->MergeScaled(*base, base_coeff));
    }
    WMS_RETURN_NOT_OK(acc->SetSteps(pushed));
    return acc;
  }

  /// One synchronization round: barrier, combine, redistribute. With
  /// `force_checkpoint` the barrier cuts a checkpoint regardless of cadence.
  Status Sync(bool force_checkpoint = false) {
    PauseAll();
    Status st;
    if (shards > 1) {
      Result<std::unique_ptr<BudgetedClassifier>> combined = CombineLocked();
      if (combined.ok()) {
        base = std::move(combined).value();
        for (auto& w : workers) {
          w->model = base->Clone();
          // Each replica resumes on its *local* learning-rate schedule
          // (iterative parameter mixing): a worker has taken ~1/N of the
          // global steps, and resetting it to the global count would shrink
          // η_t by ~√N and stall per-shard progress after the first sync.
          st = w->model->SetSteps(w->processed.load(std::memory_order_relaxed));
          if (!st.ok()) break;
        }
      } else {
        st = combined.status();
      }
    }
    if (st.ok()) {
      ++syncs;
      since_sync = 0;
      // Publish while the workers are still parked: for multiple shards the
      // freshly combined `base` is the global model; for one shard the lone
      // (drained, quiescent) replica is. Readers switch over wait-free.
      if (serving != nullptr) {
        const BudgetedClassifier& model =
            (shards > 1 && base != nullptr) ? *base : *workers[0]->model;
        serving->Publish(CaptureServingSnapshot(model, Learner::kDefaultSnapshotTopK));
        since_publish = 0;
      }
      // Checkpoint inside the same paused window, from the same consistent
      // model the publication path uses.
      if (checkpointer != nullptr &&
          (force_checkpoint ||
           (checkpoint_every > 0 && since_checkpoint >= checkpoint_every))) {
        const BudgetedClassifier& model =
            (shards > 1 && base != nullptr) ? *base : *workers[0]->model;
        last_checkpoint_status = checkpointer->WriteClassifier(config.method, model);
        since_checkpoint = 0;
      }
    }
    ResumeAll();
    return st;
  }

  void Shutdown() {
    stop.store(true, std::memory_order_release);
    for (auto& w : workers) Wake(*w);
    for (auto& w : workers) {
      if (w->thread.joinable()) w->thread.join();
    }
  }

  // Every destruction path must join the workers — including replacement by
  // move assignment, which destroys the old Impl without going through
  // ~ShardedLearner's guard. Idempotent after an explicit Shutdown.
  ~Impl() { Shutdown(); }
};

ShardedLearner::ShardedLearner(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}
ShardedLearner::ShardedLearner(ShardedLearner&&) noexcept = default;
ShardedLearner& ShardedLearner::operator=(ShardedLearner&&) noexcept = default;

ShardedLearner::~ShardedLearner() = default;

Status ShardedLearner::Push(const Example& example) {
  Impl& impl = *impl_;
  if (impl.collapsed) {
    return Status::FailedPrecondition("sharded learner already collapsed");
  }
  if (impl.sync_interval > 0 && impl.since_sync >= impl.sync_interval) {
    WMS_RETURN_NOT_OK(impl.Sync());
  } else if (impl.serving != nullptr && impl.serve_every > 0 &&
             impl.since_publish >= impl.serve_every) {
    // A publication needs a consistent global model, which only a merge
    // barrier produces — so ServeEvery paces extra sync-and-publish rounds.
    WMS_RETURN_NOT_OK(impl.Sync());
  } else if (impl.checkpointer != nullptr && impl.checkpoint_every > 0 &&
             impl.since_checkpoint >= impl.checkpoint_every) {
    // Likewise CheckpointEvery: a durable snapshot needs a merge barrier.
    WMS_RETURN_NOT_OK(impl.Sync());
  }
  const size_t shard =
      impl.shards > 1 ? static_cast<size_t>(ExampleHash(example.x) % impl.shards) : 0;
  impl.PushTo(*impl.workers[shard], example);
  ++impl.pushed;
  ++impl.since_sync;
  ++impl.since_publish;
  ++impl.since_checkpoint;
  return Status::OK();
}

Status ShardedLearner::PushBatch(std::span<const Example> batch) {
  for (const Example& ex : batch) {
    WMS_RETURN_NOT_OK(Push(ex));
  }
  return Status::OK();
}

Status ShardedLearner::SyncNow() {
  if (impl_->collapsed) {
    return Status::FailedPrecondition("sharded learner already collapsed");
  }
  return impl_->Sync();
}

Result<Learner> ShardedLearner::Collapse() {
  Impl& impl = *impl_;
  if (impl.collapsed) {
    return Status::FailedPrecondition("sharded learner already collapsed");
  }
  impl.PauseAll();  // drain every queue so all pushed examples are trained
  impl.Shutdown();
  impl.collapsed = true;

  // A single shard's replica passes through untouched (bit-identical to
  // sequential training); multiple shards combine under the mixing rule.
  std::unique_ptr<BudgetedClassifier> model;
  if (impl.shards == 1) {
    model = std::move(impl.workers[0]->model);
  } else {
    WMS_ASSIGN_OR_RETURN(model, impl.CombineLocked());
  }
  Learner collapsed(impl.config, impl.opts, std::move(model));
  if (impl.serving != nullptr) {
    // Publish the final model, and hand the serving state to the collapsed
    // learner: existing handles keep working, and further (sequential)
    // training keeps publishing on the same cadence.
    impl.serving->Publish(
        CaptureServingSnapshot(collapsed.impl(), Learner::kDefaultSnapshotTopK));
    collapsed.serving_ = std::move(impl.serving);
    collapsed.serve_every_ = impl.serve_every;
    collapsed.next_publish_steps_ = collapsed.steps() + impl.serve_every;
  }
  if (impl.checkpointer != nullptr) {
    // Cut a final checkpoint of the collapsed model and hand the checkpointer
    // over: further (sequential) training keeps checkpointing on the same
    // cadence into the same directory.
    collapsed.checkpointer_ = std::move(impl.checkpointer);
    collapsed.checkpoint_every_ = impl.checkpoint_every;
    collapsed.next_checkpoint_steps_ =
        impl.checkpoint_every == 0 ? 0 : collapsed.steps() + impl.checkpoint_every;
    collapsed.last_checkpoint_status_ = collapsed.checkpointer_->Write(collapsed);
  }
  return collapsed;
}

Status ShardedLearner::CheckpointNow() {
  Impl& impl = *impl_;
  if (impl.collapsed) {
    return Status::FailedPrecondition("sharded learner already collapsed");
  }
  if (impl.checkpointer == nullptr) {
    return Status::FailedPrecondition("checkpointing not enabled on this engine");
  }
  WMS_RETURN_NOT_OK(impl.Sync(/*force_checkpoint=*/true));
  return impl.last_checkpoint_status;
}

const Status& ShardedLearner::last_checkpoint_status() const {
  return impl_->last_checkpoint_status;
}

Result<ServingHandle> ShardedLearner::AcquireServingHandle() {
  Impl& impl = *impl_;
  if (impl.collapsed) {
    return Status::FailedPrecondition("sharded learner already collapsed");
  }
  if (impl.serving == nullptr) impl.serving = std::make_shared<ServingState>();
  if (impl.serving->published_version() == 0) {
    // First acquisition: one barrier publishes the current global model so
    // the handle is immediately servable.
    WMS_RETURN_NOT_OK(impl.Sync());
  }
  ServingState::Slot* slot = impl.serving->RegisterHandle();
  if (slot == nullptr) {
    return Status::FailedPrecondition(
        "serving: all " + std::to_string(ServingState::kMaxHandles) +
        " reader handle slots are registered");
  }
  return ServingHandle(impl.serving, slot);
}

uint32_t ShardedLearner::shards() const { return impl_->shards; }
uint64_t ShardedLearner::sync_interval() const { return impl_->sync_interval; }

ShardedLearnerStats ShardedLearner::Stats() const {
  ShardedLearnerStats stats;
  stats.pushed = impl_->pushed;
  stats.syncs = impl_->syncs;
  stats.per_shard.reserve(impl_->workers.size());
  for (const auto& w : impl_->workers) {
    stats.per_shard.push_back(w->processed.load(std::memory_order_relaxed));
  }
  return stats;
}

// Defined here rather than in api/learner.cc so the api layer carries no
// dependency on the engine (or on <thread>); the builder declaration
// forward-declares ShardedLearner only.
Result<ShardedLearner> LearnerBuilder::BuildSharded() const {
  if (shards_ == 0 || shards_ > kMaxShards) {
    return Status::OutOfRange("Shards(" + std::to_string(shards_) + "): the shard count must be 1 to " +
                                  std::to_string(kMaxShards),
                              ToDetail(ConfigError::kShardsOutOfRange));
  }
  // Validate the specification once through the ordinary build path; the
  // prototype also answers whether the method is mergeable at all.
  WMS_ASSIGN_OR_RETURN(Learner prototype, Build());
  if (shards_ > 1) {
    const Status mergeable = prototype.impl().CanMerge(prototype.impl());
    if (!mergeable.ok()) {
      return Status::Unimplemented(
          "Shards(" + std::to_string(shards_) + ") requires a mergeable method: " +
          mergeable.message());
    }
  }

  auto impl = std::make_unique<ShardedLearner::Impl>();
  impl->config = prototype.config();
  impl->opts = prototype.options();
  impl->shards = shards_;
  impl->sync_interval = sync_interval_;
  impl->serve_every = serve_every_;
  if (!checkpoint_spec_.dir.empty()) {
    WMS_ASSIGN_OR_RETURN(Checkpointer cp,
                         Checkpointer::Open(checkpoint_spec_.dir, checkpoint_spec_.keep_last));
    impl->checkpointer = std::make_shared<Checkpointer>(std::move(cp));
    impl->checkpoint_every = checkpoint_spec_.every;
  }
  impl->workers.reserve(shards_);
  for (uint32_t i = 0; i < shards_; ++i) {
    auto worker = std::make_unique<ShardedLearner::Impl::Worker>();
    // Every replica is stamped from the identical validated configuration
    // (same seed, hence identical hash rows — the merge prerequisite).
    worker->model = MakeClassifier(impl->config, impl->opts);
    impl->workers.push_back(std::move(worker));
  }
  ShardedLearner::Impl* raw = impl.get();
  for (auto& worker : impl->workers) {
    ShardedLearner::Impl::Worker* w = worker.get();
    w->thread = std::thread([raw, w] { raw->WorkerLoop(*w); });
  }
  return ShardedLearner(std::move(impl));
}

}  // namespace wmsketch
