// Tests for the mergeability layer (BudgetedClassifier::Merge and friends),
// the sharded parallel training engine built on top of it, and the
// concurrent behavior of the wait-free serving path (this suite is what the
// TSan CI job runs).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <span>
#include <sstream>
#include <thread>
#include <vector>

#include "api/learner.h"
#include "core/awm_sketch.h"
#include "core/wm_sketch.h"
#include "datagen/classification_gen.h"
#include "engine/serving.h"
#include "engine/sharded_learner.h"
#include "engine/spsc_ring.h"
#include "linear/dense_linear_model.h"
#include "metrics/recovery.h"
#include "util/crc32c.h"
#include "util/memory_cost.h"

namespace wmsketch {
namespace {

std::vector<Example> MakeStream(const ClassificationProfile& profile, uint64_t seed,
                                int n) {
  SyntheticClassificationGen gen(profile, seed);
  std::vector<Example> out;
  out.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) out.push_back(gen.Next());
  return out;
}

LearnerBuilder AwmBuilder(uint64_t seed = 42) {
  return LearnerBuilder()
      .SetMethod(Method::kAwmSketch)
      .SetWidth(1024)
      .SetDepth(1)
      .SetHeapCapacity(256)
      .SetLambda(1e-6)
      .SetSeed(seed);
}

LearnerBuilder WmBuilder(uint64_t seed = 42) {
  return LearnerBuilder()
      .SetMethod(Method::kWmSketch)
      .SetWidth(512)
      .SetDepth(3)
      .SetHeapCapacity(128)
      .SetLambda(1e-6)
      .SetSeed(seed);
}

std::string Serialized(const Learner& learner) {
  std::ostringstream out;
  EXPECT_TRUE(SaveLearner(learner, out).ok());
  return out.str();
}

// ------------------------------------------------------------ SPSC ring

TEST(SpscRingTest, OrderPreservedAcrossThreads) {
  SpscRing<int> ring(64);
  constexpr int kCount = 100000;
  std::atomic<bool> fail{false};
  std::thread consumer([&] {
    int expected = 0;
    int v = 0;
    while (expected < kCount) {
      if (ring.TryPop(&v)) {
        if (v != expected++) {
          fail.store(true);
          return;
        }
      } else {
        std::this_thread::yield();
      }
    }
  });
  for (int i = 0; i < kCount;) {
    int v = i;
    if (ring.TryPush(std::move(v))) {
      ++i;
    } else {
      std::this_thread::yield();
    }
  }
  consumer.join();
  EXPECT_FALSE(fail.load());
  EXPECT_TRUE(ring.Empty());
}

TEST(SpscRingTest, CapacityRoundsUpAndBounds) {
  SpscRing<int> ring(3);
  EXPECT_EQ(ring.capacity(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.TryPush(int(i)));
  EXPECT_FALSE(ring.TryPush(99));
  int v = 0;
  ASSERT_TRUE(ring.TryPop(&v));
  EXPECT_EQ(v, 0);
  EXPECT_TRUE(ring.TryPush(99));
}

// Heap-owning items of varying sizes cross threads in order and intact,
// although every pop hands the consumer's old storage back to the producer.
TEST(SpscRingTest, HeapItemsArriveInOrderAcrossThreads) {
  SpscRing<std::vector<int>> ring(16);
  constexpr int kCount = 20000;
  const auto item = [](int i) { return std::vector<int>(static_cast<size_t>(i % 37), i); };
  std::atomic<bool> fail{false};
  std::thread consumer([&] {
    std::vector<int> out;
    for (int expected = 0; expected < kCount;) {
      if (ring.TryPop(&out)) {
        if (out != item(expected++)) {
          fail.store(true);
          return;
        }
      } else {
        std::this_thread::yield();
      }
    }
  });
  for (int i = 0; i < kCount;) {
    if (ring.TryPush(item(i))) {
      ++i;
    } else {
      std::this_thread::yield();
    }
  }
  consumer.join();
  EXPECT_FALSE(fail.load());
  EXPECT_TRUE(ring.Empty());
}

// A pop swaps the consumer's storage into the slot; one trip around the ring
// later a push copies over that storage, so the same buffer comes back out.
TEST(SpscRingTest, SlotReusesStorageSwappedIntoIt) {
  SpscRing<std::vector<int>> ring(4);
  std::vector<int> out;
  out.reserve(100);
  const int* recycled = out.data();
  ASSERT_TRUE(ring.TryPush(std::vector<int>{1, 2, 3}));
  ASSERT_TRUE(ring.TryPop(&out));
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3}));
  std::vector<int> other;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(ring.TryPush(std::vector<int>(5, i)));
    ASSERT_TRUE(ring.TryPop(&other));
  }
  const std::vector<int> item(50, 7);
  ASSERT_TRUE(ring.TryPush(item));  // lands in slot 0 again
  std::vector<int> back;
  ASSERT_TRUE(ring.TryPop(&back));
  EXPECT_EQ(back, item);
  EXPECT_EQ(back.data(), recycled);
}

// -------------------------------------------------- merge: error paths

TEST(MergeTest, BaselinesReportUnimplemented) {
  for (const Method m : {Method::kSimpleTruncation, Method::kProbabilisticTruncation,
                         Method::kSpaceSavingFrequent, Method::kCountMinFrequent,
                         Method::kFeatureHashing}) {
    Result<Learner> a =
        LearnerBuilder().SetMethod(m).SetBudgetBytes(KiB(4)).SetSeed(1).Build();
    Result<Learner> b =
        LearnerBuilder().SetMethod(m).SetBudgetBytes(KiB(4)).SetSeed(1).Build();
    ASSERT_TRUE(a.ok() && b.ok()) << MethodName(m);
    const Status st = a.value().Merge(b.value());
    EXPECT_EQ(st.code(), StatusCode::kUnimplemented) << MethodName(m);
    EXPECT_EQ(a.value().CanMerge(b.value()).code(), StatusCode::kUnimplemented);
  }
}

TEST(MergeTest, ShapeAndSeedMismatchesRejected) {
  Learner base = std::move(WmBuilder().Build()).value();
  // Different width.
  Learner wide = std::move(WmBuilder().SetWidth(1024).Build()).value();
  EXPECT_EQ(base.Merge(wide).code(), StatusCode::kInvalidArgument);
  // Different depth.
  Learner deep = std::move(WmBuilder().SetDepth(5).Build()).value();
  EXPECT_EQ(base.Merge(deep).code(), StatusCode::kInvalidArgument);
  // Different seed: identical shape but different hash rows.
  Learner reseeded = std::move(WmBuilder(43).Build()).value();
  EXPECT_EQ(base.Merge(reseeded).code(), StatusCode::kInvalidArgument);
  // Different heap capacity.
  Learner bigheap = std::move(WmBuilder().SetHeapCapacity(64).Build()).value();
  EXPECT_EQ(base.Merge(bigheap).code(), StatusCode::kInvalidArgument);
  // Different method entirely.
  Learner awm = std::move(AwmBuilder().Build()).value();
  EXPECT_EQ(base.Merge(awm).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(awm.Merge(base).code(), StatusCode::kInvalidArgument);
  // A failed merge leaves the target untouched.
  EXPECT_EQ(base.steps(), 0u);
}

// ---------------------------------------------- merge: linearity checks

TEST(MergeTest, WmDepthOneMergeIsExactlyAdditive) {
  // With depth 1 the median is the identity, so per-bucket additivity makes
  // merged estimates exactly the sum of the two models' estimates.
  const ClassificationProfile profile = ClassificationProfile::SmallTest();
  auto builder = WmBuilder().SetDepth(1);
  Learner a = std::move(builder.Build()).value();
  Learner b = std::move(builder.Build()).value();
  const std::vector<Example> sa = MakeStream(profile, 11, 2000);
  const std::vector<Example> sb = MakeStream(profile, 22, 2000);
  a.UpdateBatch(sa);
  b.UpdateBatch(sb);

  std::vector<float> expected(profile.dimension);
  for (uint32_t f = 0; f < profile.dimension; ++f) {
    expected[f] = a.WeightEstimate(f) + b.WeightEstimate(f);
  }
  ASSERT_TRUE(a.CanMerge(b).ok());
  ASSERT_TRUE(a.Merge(b).ok());
  EXPECT_EQ(a.steps(), 4000u);
  for (uint32_t f = 0; f < profile.dimension; ++f) {
    const float tol = 1e-4f + 1e-3f * std::fabs(expected[f]);
    EXPECT_NEAR(a.WeightEstimate(f), expected[f], tol) << f;
  }
}

TEST(MergeTest, AwmMergeAddsEstimatesOnHeavyFeatures) {
  const ClassificationProfile profile = ClassificationProfile::SmallTest();
  Learner a = std::move(AwmBuilder().Build()).value();
  Learner b = std::move(AwmBuilder().Build()).value();
  a.UpdateBatch(MakeStream(profile, 31, 3000));
  b.UpdateBatch(MakeStream(profile, 32, 3000));

  // The merged estimate of each feature that holds an active-set slot in the
  // merged model must be the exact sum of the two models' estimates.
  std::vector<float> expected(profile.dimension);
  for (uint32_t f = 0; f < profile.dimension; ++f) {
    expected[f] = a.WeightEstimate(f) + b.WeightEstimate(f);
  }
  ASSERT_TRUE(a.Merge(b).ok());
  EXPECT_EQ(a.steps(), 6000u);
  const std::vector<FeatureWeight> top = a.TopK(32);
  ASSERT_FALSE(top.empty());
  for (const FeatureWeight& fw : top) {
    const float tol = 1e-4f + 1e-3f * std::fabs(expected[fw.feature]);
    EXPECT_NEAR(fw.weight, expected[fw.feature], tol) << fw.feature;
  }
}

TEST(MergeTest, ScaleWeightsAveragesAndClonesAreIndependent) {
  const ClassificationProfile profile = ClassificationProfile::SmallTest();
  Learner a = std::move(AwmBuilder().Build()).value();
  a.UpdateBatch(MakeStream(profile, 5, 1500));

  std::unique_ptr<BudgetedClassifier> clone = a.impl().Clone();
  ASSERT_NE(clone, nullptr);
  const uint32_t probe = a.TopK(1).at(0).feature;
  const float before = a.WeightEstimate(probe);
  EXPECT_FLOAT_EQ(clone->WeightEstimate(probe), before);

  // Scaling the clone must not disturb the original (deep copy)...
  ASSERT_TRUE(clone->ScaleWeights(0.5).ok());
  EXPECT_NEAR(clone->WeightEstimate(probe), 0.5f * before, 1e-5f + 1e-4f * std::fabs(before));
  EXPECT_FLOAT_EQ(a.WeightEstimate(probe), before);
  // ...and non-positive factors are rejected.
  EXPECT_EQ(clone->ScaleWeights(0.0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(clone->ScaleWeights(-1.0).code(), StatusCode::kInvalidArgument);

  // SetSteps overrides only the counter.
  ASSERT_TRUE(clone->SetSteps(99).ok());
  EXPECT_EQ(clone->steps(), 99u);
}

TEST(MergeTest, MergeThenHalveMatchesParameterMixing) {
  // avg = (w_a + w_b) / 2 through the public pieces.
  const ClassificationProfile profile = ClassificationProfile::SmallTest();
  Learner a = std::move(WmBuilder().SetDepth(1).Build()).value();
  Learner b = std::move(WmBuilder().SetDepth(1).Build()).value();
  a.UpdateBatch(MakeStream(profile, 61, 1000));
  b.UpdateBatch(MakeStream(profile, 62, 1000));
  const uint32_t probe = a.TopK(1).at(0).feature;
  const float wa = a.WeightEstimate(probe), wb = b.WeightEstimate(probe);
  ASSERT_TRUE(a.Merge(b).ok());
  ASSERT_TRUE(a.impl().ScaleWeights(0.5).ok());
  const float avg = 0.5f * (wa + wb);
  EXPECT_NEAR(a.WeightEstimate(probe), avg, 1e-4f + 1e-3f * std::fabs(avg));
}

// ------------------------------------------------------ sharded engine

TEST(ShardedLearnerTest, RequiresMergeableMethodForMultipleShards) {
  Result<ShardedLearner> r = LearnerBuilder()
                                 .SetMethod(Method::kSimpleTruncation)
                                 .SetBudgetBytes(KiB(4))
                                 .Shards(4)
                                 .BuildSharded();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnimplemented);

  // A single shard never merges, so any method works.
  Result<ShardedLearner> single = LearnerBuilder()
                                      .SetMethod(Method::kSimpleTruncation)
                                      .SetBudgetBytes(KiB(4))
                                      .Shards(1)
                                      .BuildSharded();
  EXPECT_TRUE(single.ok());

  EXPECT_FALSE(LearnerBuilder().SetBudgetBytes(KiB(4)).Shards(0).BuildSharded().ok());
}

TEST(ShardedLearnerTest, SingleShardIsBitIdenticalToSequential) {
  const ClassificationProfile profile = ClassificationProfile::SmallTest();
  const std::vector<Example> stream = MakeStream(profile, 77, 4000);

  for (const bool use_wm : {false, true}) {
    LearnerBuilder builder = use_wm ? WmBuilder() : AwmBuilder();
    Learner sequential = std::move(builder.Build()).value();
    sequential.UpdateBatch(stream);

    ShardedLearner engine = std::move(builder.Shards(1).SetSyncInterval(512).BuildSharded()).value();
    ASSERT_TRUE(engine.PushBatch(stream).ok());
    Result<Learner> collapsed = engine.Collapse();
    ASSERT_TRUE(collapsed.ok());

    EXPECT_EQ(collapsed.value().steps(), sequential.steps());
    // Byte-for-byte identical serialized state: same tables, same scales,
    // same heap layout, same counters.
    EXPECT_EQ(Serialized(collapsed.value()), Serialized(sequential))
        << (use_wm ? "wm" : "awm");

    EXPECT_EQ(engine.Collapse().status().code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(engine.Push(stream[0]).code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(engine.SyncNow().code(), StatusCode::kFailedPrecondition);
  }
}

// One shard behind a 1024-slot ring, fed far faster than it trains, with a
// barrier every 3000 examples: the owner blocks on the full ring hundreds of
// times and at 20 barriers, and the result must still be the sequential
// model bit for bit.
TEST(ShardedLearnerTest, SingleShardStressThroughFullRingAndBarriers) {
  const std::vector<Example> stream =
      MakeStream(ClassificationProfile::SmallTest(), 5, 60000);
  Learner sequential = std::move(AwmBuilder().Build()).value();
  sequential.UpdateBatch(stream);

  ShardedLearner engine = std::move(AwmBuilder().Shards(1).BuildSharded()).value();
  const std::span<const Example> all(stream);
  for (size_t at = 0; at < all.size(); at += 3000) {
    ASSERT_TRUE(engine.PushBatch(all.subspan(at, std::min<size_t>(3000, all.size() - at))).ok());
    ASSERT_TRUE(engine.SyncNow().ok());
  }
  EXPECT_EQ(engine.Stats().per_shard[0], stream.size());
  Result<Learner> collapsed = engine.Collapse();
  ASSERT_TRUE(collapsed.ok());
  EXPECT_EQ(Serialized(collapsed.value()), Serialized(sequential));
}

// Collapsed 3-shard bytes. Partitioning, per-shard order and the merge order
// fix every replica's updates, so the bytes are a pure function of the code:
// how the owner hands examples to the workers or waits for them must not move
// them, and only a deliberate model or format change re-records them.
TEST(ShardedLearnerTest, GoldenCollapsedBytes) {
  const std::vector<Example> stream =
      MakeStream(ClassificationProfile::SmallTest(), 2024, 20000);
  for (const auto& [use_wm, crc] : {std::pair{false, 0xf17b552cu}, std::pair{true, 0x047a3ca3u}}) {
    LearnerBuilder builder = use_wm ? WmBuilder() : AwmBuilder();
    ShardedLearner engine = std::move(builder.Shards(3).BuildSharded()).value();
    const std::span<const Example> all(stream);
    for (size_t at = 0; at < all.size(); at += 4096) {
      ASSERT_TRUE(engine.PushBatch(all.subspan(at, std::min<size_t>(4096, all.size() - at))).ok());
      ASSERT_TRUE(engine.SyncNow().ok());
    }
    Result<Learner> collapsed = engine.Collapse();
    ASSERT_TRUE(collapsed.ok());
    const std::string bytes = Serialized(collapsed.value());
    EXPECT_EQ(crc32c::Value(bytes.data(), bytes.size()), crc) << (use_wm ? "wm" : "awm");
  }
}

TEST(ShardedLearnerTest, StatsCountEveryExampleExactly) {
  const ClassificationProfile profile = ClassificationProfile::SmallTest();
  const std::vector<Example> stream = MakeStream(profile, 13, 3000);
  ShardedLearner engine =
      std::move(AwmBuilder().Shards(4).SetSyncInterval(1000).BuildSharded()).value();
  ASSERT_TRUE(engine.PushBatch(stream).ok());
  ASSERT_TRUE(engine.SyncNow().ok());  // barrier: per-shard counts now exact
  const ShardedLearnerStats stats = engine.Stats();
  EXPECT_EQ(stats.pushed, stream.size());
  EXPECT_GE(stats.syncs, 3u);  // two periodic (at 1000, 2000) + the explicit one
  ASSERT_EQ(stats.per_shard.size(), 4u);
  uint64_t total = 0;
  for (const uint64_t n : stats.per_shard) {
    EXPECT_GT(n, 0u);  // hash partitioning spreads the stream across shards
    total += n;
  }
  EXPECT_EQ(total, stream.size());

  Result<Learner> collapsed = engine.Collapse();
  ASSERT_TRUE(collapsed.ok());
  EXPECT_EQ(collapsed.value().steps(), stream.size());
}

TEST(ShardedLearnerTest, ShardedRecoveryQualityWithinToleranceOfSequential) {
  // Recovery quality of the 4-shard collapsed model should be in the same
  // regime as the sequential model on the same stream — parameter mixing
  // loses a little, but must stay far from the unsorted-noise regime.
  const ClassificationProfile profile = ClassificationProfile::SmallTest();
  const int kExamples = 12000;
  const size_t kTopK = 64;
  const std::vector<Example> stream = MakeStream(profile, 99, kExamples);

  LearnerOptions ref_opts;
  ref_opts.lambda = 1e-6;
  ref_opts.seed = 42;
  DenseLinearModel reference(profile.dimension, ref_opts);
  for (const Example& ex : stream) reference.Update(ex.x, ex.y);
  const std::vector<float> w_star = reference.Weights();

  Learner sequential = std::move(AwmBuilder().Build()).value();
  sequential.UpdateBatch(stream);
  const double seq_err = RelErrTopK(sequential.TopK(kTopK), w_star, kTopK);

  ShardedLearner engine =
      std::move(AwmBuilder().Shards(4).SetSyncInterval(2000).BuildSharded()).value();
  ASSERT_TRUE(engine.PushBatch(stream).ok());
  Learner collapsed = std::move(engine.Collapse()).value();
  EXPECT_EQ(collapsed.steps(), static_cast<uint64_t>(kExamples));
  const double sharded_err = RelErrTopK(collapsed.TopK(kTopK), w_star, kTopK);

  // RelErr is bounded below by 1. The schedule-matched mixing rule keeps the
  // 4-shard collapse within a few percent of sequential (measured ~0.07
  // delta on this stream); 0.25 leaves headroom without admitting the
  // plain-averaging regime (~0.7 delta).
  EXPECT_LT(sharded_err, seq_err + 0.25)
      << "sequential=" << seq_err << " sharded=" << sharded_err;

  // The collapsed model is an ordinary Learner: snapshots and serialization
  // work unchanged.
  const LearnerSnapshot snap = collapsed.Snapshot(kTopK);
  EXPECT_EQ(snap.steps(), static_cast<uint64_t>(kExamples));
  std::stringstream io;
  ASSERT_TRUE(SaveLearner(collapsed, io).ok());
  Result<Learner> restored = LoadLearner(io, ref_opts);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value().steps(), collapsed.steps());
}

// ---------------------------------------------------- concurrent serving

// Readers spin on ServingHandles while the writer trains and publishes
// every K updates. Checked invariants: observed versions and step counts
// are monotone; every snapshot is internally consistent (two reads of the
// same feature under one pin are bit-identical — a torn or mutated table
// would break this); margins are finite. Run under TSan in CI, this is
// also the race-freedom proof of the pin/publish/reclaim protocol.
TEST(ServingConcurrencyTest, PredictUnderUpdateIsMonotoneAndConsistent) {
  const ClassificationProfile profile = ClassificationProfile::SmallTest();
  const std::vector<Example> stream = MakeStream(profile, 7, 12000);

  Learner model = std::move(WmBuilder().ServeEvery(512).Build()).value();
  constexpr int kReaders = 3;
  std::vector<ServingHandle> handles;
  for (int r = 0; r < kReaders; ++r) {
    Result<ServingHandle> h = model.AcquireServingHandle();
    ASSERT_TRUE(h.ok()) << h.status().ToString();
    handles.push_back(std::move(h).value());
  }

  std::atomic<bool> done{false};
  std::atomic<bool> failed{false};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      ServingHandle& handle = handles[static_cast<size_t>(r)];
      const std::span<const Example> queries(stream.data(), 64);
      std::vector<double> margins(queries.size());
      const uint32_t probe = 11;
      uint64_t last_version = 0;
      uint64_t last_steps = 0;
      while (!done.load(std::memory_order_acquire)) {
        const uint64_t v = handle.Refresh();
        const uint64_t s = handle.steps();
        if (v < last_version || s < last_steps) {
          failed.store(true);
          return;
        }
        last_version = v;
        last_steps = s;
        handle.PredictBatch(queries, margins.data());
        for (const double m : margins) {
          if (!std::isfinite(m)) {
            failed.store(true);
            return;
          }
        }
        // Internal consistency under one pin: the snapshot is immutable, so
        // two point queries of the same feature in one batch must agree
        // bit-for-bit no matter how many versions the writer publishes.
        const uint32_t ids[2] = {probe, probe};
        float est[2];
        handle.EstimateBatch(ids, est);
        if (est[0] != est[1]) {
          failed.store(true);
          return;
        }
      }
    });
  }

  // The writer trains (and publishes every 512 updates) while readers spin.
  constexpr size_t kChunk = 256;
  for (size_t at = 0; at < stream.size(); at += kChunk) {
    model.UpdateBatch(std::span<const Example>(
        stream.data() + at, std::min(kChunk, stream.size() - at)));
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_FALSE(failed.load());
  // Every boundary was published; the readers' final refresh can observe it.
  EXPECT_EQ(handles[0].Refresh(), 1u + model.steps() / 512);
  EXPECT_EQ(handles[0].steps(), (model.steps() / 512) * 512);
}

// The same under sharded ingestion: readers serve from merge-barrier
// snapshots while the owner pushes and workers train.
TEST(ServingConcurrencyTest, ShardedPredictUnderPushIsMonotone) {
  const ClassificationProfile profile = ClassificationProfile::SmallTest();
  const std::vector<Example> stream = MakeStream(profile, 23, 8000);

  ShardedLearner engine =
      std::move(AwmBuilder().Shards(2).ServeEvery(2000).BuildSharded()).value();
  Result<ServingHandle> acquired = engine.AcquireServingHandle();
  ASSERT_TRUE(acquired.ok()) << acquired.status().ToString();
  ServingHandle handle = std::move(acquired).value();

  std::atomic<bool> done{false};
  std::atomic<bool> failed{false};
  std::thread reader([&] {
    const std::span<const Example> queries(stream.data(), 32);
    std::vector<double> margins(queries.size());
    uint64_t last_version = 0;
    while (!done.load(std::memory_order_acquire)) {
      const uint64_t v = handle.Refresh();
      if (v < last_version) {
        failed.store(true);
        return;
      }
      last_version = v;
      handle.PredictBatch(queries, margins.data());
    }
  });

  ASSERT_TRUE(engine.PushBatch(stream).ok());
  Result<Learner> collapsed = engine.Collapse();
  ASSERT_TRUE(collapsed.ok());
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_FALSE(failed.load());
  handle.Refresh();
  EXPECT_EQ(handle.steps(), stream.size());
}

TEST(ShardedLearnerTest, DestructorWithoutCollapseJoinsCleanly) {
  const ClassificationProfile profile = ClassificationProfile::SmallTest();
  const std::vector<Example> stream = MakeStream(profile, 3, 500);
  {
    ShardedLearner engine = std::move(AwmBuilder().Shards(2).BuildSharded()).value();
    ASSERT_TRUE(engine.PushBatch(stream).ok());
    // Dropped without Collapse: workers must stop and join without hanging.
  }
  // Move assignment over a live engine must likewise join the replaced
  // engine's workers (not std::terminate on a joinable std::thread).
  ShardedLearner a = std::move(AwmBuilder().Shards(2).BuildSharded()).value();
  ShardedLearner b = std::move(AwmBuilder().Shards(2).BuildSharded()).value();
  ASSERT_TRUE(a.PushBatch(stream).ok());
  a = std::move(b);
  ASSERT_TRUE(a.Push(stream[0]).ok());
  SUCCEED();
}

}  // namespace
}  // namespace wmsketch
