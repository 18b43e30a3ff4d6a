// Round-trip tests for the facade-level SaveLearner/LoadLearner: for every
// Method, a trained learner serialized and restored must produce identical
// margins and top-K on held-out examples; malformed streams are rejected.

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <utility>
#include <vector>

#include "api/learner.h"
#include "core/snapshot_io.h"
#include "datagen/classification_gen.h"
#include "util/crc32c.h"
#include "util/memory_cost.h"

namespace wmsketch {
namespace {

LearnerOptions Opts(uint64_t seed = 42) {
  LearnerOptions opts;
  opts.lambda = 1e-4;
  opts.rate = LearningRate::Constant(0.2);
  opts.seed = seed;
  return opts;
}

Learner TrainedLearner(Method method, int examples, uint64_t seed) {
  Result<Learner> built = LearnerBuilder()
                              .SetMethod(method)
                              .SetBudgetBytes(KiB(2))
                              .SetLambda(1e-4)
                              .SetLearningRate(LearningRate::Constant(0.2))
                              .SetSeed(seed)
                              .Build();
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  Learner learner = std::move(built).value();
  SyntheticClassificationGen gen(ClassificationProfile::SmallTest(), seed ^ 0x5151);
  std::vector<Example> stream;
  stream.reserve(examples);
  for (int i = 0; i < examples; ++i) stream.push_back(gen.Next());
  learner.UpdateBatch(stream);
  return learner;
}

TEST(LearnerSerializationTest, RoundTripIsExactForEveryMethod) {
  SyntheticClassificationGen held_out_gen(ClassificationProfile::SmallTest(), 999);
  std::vector<Example> held_out;
  for (int i = 0; i < 200; ++i) held_out.push_back(held_out_gen.Next());

  for (const Method m : AllMethods()) {
    const Learner original = TrainedLearner(m, 3000, 17);

    std::stringstream buffer;
    ASSERT_TRUE(SaveLearner(original, buffer).ok()) << MethodName(m);
    Result<Learner> restored = LoadLearner(buffer, Opts(17));
    ASSERT_TRUE(restored.ok()) << MethodName(m) << ": " << restored.status().ToString();

    EXPECT_EQ(restored.value().method(), m);
    EXPECT_EQ(restored.value().steps(), original.steps()) << MethodName(m);
    EXPECT_EQ(restored.value().MemoryCostBytes(), original.MemoryCostBytes())
        << MethodName(m);
    EXPECT_EQ(restored.value().config().width, original.config().width) << MethodName(m);
    EXPECT_EQ(restored.value().config().depth, original.config().depth) << MethodName(m);
    EXPECT_EQ(restored.value().config().heap_capacity, original.config().heap_capacity)
        << MethodName(m);

    // Identical margins on held-out examples.
    for (const Example& ex : held_out) {
      EXPECT_EQ(restored.value().PredictMargin(ex.x), original.PredictMargin(ex.x))
          << MethodName(m);
      EXPECT_EQ(restored.value().Classify(ex.x), original.Classify(ex.x)) << MethodName(m);
    }
    // Identical point estimates across the feature space.
    for (uint32_t f = 0; f < 4096; f += 9) {
      EXPECT_EQ(restored.value().WeightEstimate(f), original.WeightEstimate(f))
          << MethodName(m) << " feature " << f;
    }
    // Identical top-K retrieval.
    const auto top_a = original.Snapshot(64).top_k();
    const auto top_b = restored.value().Snapshot(64).top_k();
    ASSERT_EQ(top_a.size(), top_b.size()) << MethodName(m);
    for (size_t i = 0; i < top_a.size(); ++i) {
      EXPECT_EQ(top_a[i], top_b[i]) << MethodName(m) << " rank " << i;
    }
  }
}

TEST(LearnerSerializationTest, RestoredOptionsCarrySnapshotLambdaAndSeed) {
  const Learner original = TrainedLearner(Method::kAwmSketch, 500, 23);
  std::stringstream buffer;
  ASSERT_TRUE(SaveLearner(original, buffer).ok());
  // Load under different caller options: λ and seed come from the snapshot.
  LearnerOptions other = Opts(/*seed=*/1);
  other.lambda = 0.5;
  Result<Learner> restored = LoadLearner(buffer, other);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value().options().lambda, 1e-4);
  EXPECT_EQ(restored.value().options().seed, 23u);
}

// Recomputes and patches the envelope checksum so a deliberately poked
// payload still passes CRC verification — the loader's own validation of
// the poked field is what's under test, not the checksum.
std::string RewriteCrc(std::string bytes) {
  const uint32_t crc = crc32c::Extend(
      crc32c::Value(bytes.data(), snapshot::kEnvelopeHeaderBytes - sizeof(uint32_t)),
      bytes.data() + snapshot::kEnvelopeHeaderBytes,
      bytes.size() - snapshot::kEnvelopeHeaderBytes);
  std::memcpy(bytes.data() + snapshot::kEnvelopeHeaderBytes - sizeof(uint32_t), &crc,
              sizeof(crc));
  return bytes;
}

TEST(LearnerSerializationTest, MalformedStreamsAreRejected) {
  const Learner original = TrainedLearner(Method::kWmSketch, 300, 29);
  std::stringstream buffer;
  ASSERT_TRUE(SaveLearner(original, buffer).ok());
  const std::string bytes = buffer.str();
  // Facade fields sit behind the 20-byte envelope header: magic(4)
  // version(4) tag(1).
  const size_t tag_at = snapshot::kEnvelopeHeaderBytes + 8;

  // Truncations at envelope-header, facade-header, and payload boundaries
  // fail cleanly.
  for (const size_t cut :
       {0ul, 4ul, 8ul, 9ul, 19ul, 20ul, 24ul, tag_at, bytes.size() / 2, bytes.size() - 1}) {
    std::stringstream cut_stream(bytes.substr(0, cut));
    EXPECT_FALSE(LoadLearner(cut_stream, Opts()).ok()) << "cut " << cut;
  }
  // Wrong magic (no longer an envelope; the legacy path rejects it too).
  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  std::stringstream bad_magic_stream(bad_magic);
  EXPECT_EQ(LoadLearner(bad_magic_stream, Opts()).status().code(), StatusCode::kCorruption);
  // A poked tag without a checksum rewrite is caught by the envelope CRC.
  std::string poked = bytes;
  poked[tag_at] = 0x7f;
  std::stringstream poked_stream(poked);
  EXPECT_EQ(LoadLearner(poked_stream, Opts()).status().code(), StatusCode::kCorruption);
  // Out-of-range method tag behind a valid checksum reaches tag validation.
  std::string bad_tag = RewriteCrc(poked);
  std::stringstream bad_tag_stream(bad_tag);
  EXPECT_EQ(LoadLearner(bad_tag_stream, Opts()).status().code(), StatusCode::kCorruption);
  // Method tag pointing at a different method than the payload.
  std::string wrong_tag = bytes;
  wrong_tag[tag_at] = static_cast<char>(Method::kAwmSketch);
  wrong_tag = RewriteCrc(wrong_tag);
  std::stringstream wrong_tag_stream(wrong_tag);
  EXPECT_FALSE(LoadLearner(wrong_tag_stream, Opts()).ok());
}

TEST(LearnerSerializationTest, ContinuedTrainingAfterRestoreMatchesStraightThrough) {
  // Deterministic methods must continue bit-identically after a mid-stream
  // snapshot/restore cycle through the facade.
  for (const Method m : {Method::kSimpleTruncation, Method::kSpaceSavingFrequent,
                         Method::kCountMinFrequent, Method::kFeatureHashing,
                         Method::kWmSketch, Method::kAwmSketch}) {
    SyntheticClassificationGen gen(ClassificationProfile::SmallTest(), 77);
    std::vector<Example> stream;
    for (int i = 0; i < 2000; ++i) stream.push_back(gen.Next());

    Learner straight = TrainedLearner(m, 0, 37);
    straight.UpdateBatch(stream);

    Learner first_half = TrainedLearner(m, 0, 37);
    first_half.UpdateBatch(std::span<const Example>(stream.data(), 1000));
    std::stringstream buffer;
    ASSERT_TRUE(SaveLearner(first_half, buffer).ok()) << MethodName(m);
    Result<Learner> resumed = LoadLearner(buffer, Opts(37));
    ASSERT_TRUE(resumed.ok()) << MethodName(m);
    resumed.value().UpdateBatch(std::span<const Example>(stream.data() + 1000, 1000));

    for (uint32_t f = 0; f < 4096; f += 11) {
      EXPECT_EQ(resumed.value().WeightEstimate(f), straight.WeightEstimate(f))
          << MethodName(m) << " feature " << f;
    }
  }
}

// Pins the exact SaveLearner bytes of every method across commits: a change
// to an active-set data structure must leave heap array order (and with it
// eviction tie-breaking), weights and the snapshot format untouched. The
// stream is seeded and every update is plain IEEE double/float arithmetic,
// so the bytes are a pure function of the code. A deliberate format or
// model change re-records these values and says so.
uint32_t SnapshotCrc(const Learner& learner) {
  std::stringstream buffer;
  EXPECT_TRUE(SaveLearner(learner, buffer).ok());
  const std::string bytes = buffer.str();
  return crc32c::Value(bytes.data(), bytes.size());
}

TEST(LearnerSerializationTest, GoldenSnapshotBytes) {
  const std::pair<Method, uint32_t> golden[] = {
      {Method::kSimpleTruncation, 0x0a398651u},
      {Method::kProbabilisticTruncation, 0xcd78fddeu},
      {Method::kSpaceSavingFrequent, 0x362ee77eu},
      {Method::kCountMinFrequent, 0xcb93255au},
      {Method::kFeatureHashing, 0x3ac323c4u},
      {Method::kWmSketch, 0x66acd2dbu},
      {Method::kAwmSketch, 0x1ddc6d65u},
  };
  for (const auto& [m, crc] : golden) {
    EXPECT_EQ(SnapshotCrc(TrainedLearner(m, 20000, 101)), crc) << MethodName(m);
  }
  // The AWM merge rebuilds the active set from the union of both sides.
  Learner merged = TrainedLearner(Method::kAwmSketch, 20000, 101);
  ASSERT_TRUE(merged.Merge(TrainedLearner(Method::kAwmSketch, 7000, 101)).ok());
  EXPECT_EQ(SnapshotCrc(merged), 0x257f547cu) << "awm merged";
}

// An AWM update can evict an active-set member that appears later in the
// same example; that feature must then take the tail path (sketch query,
// admission test, tail scatter) like any other non-member. Random streams
// rarely reach this case, so a hand-made one pins its bytes.
TEST(LearnerSerializationTest, GoldenAwmStaleMemberBytes) {
  Result<Learner> built = LearnerBuilder()
                              .SetMethod(Method::kAwmSketch)
                              .SetWidth(16)
                              .SetDepth(1)
                              .SetHeapCapacity(2)
                              .SetLambda(0.0)
                              .SetLearningRate(LearningRate::Constant(0.5))
                              .SetSeed(3)
                              .Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  Learner awm = std::move(built).value();
  // Admits 5 (weight 0.025) and 6 (weight 0.25) into the two slots.
  awm.Update(Example{SparseVector({5, 6}, {0.1f, 1.0f}), 1});
  // Feature 1's large candidate weight evicts 5, the smallest member; 5 is
  // processed next in the same example, no longer a member.
  awm.Update(Example{SparseVector({1, 5}, {10.0f, 0.1f}), 1});
  // 5 carries its folded-back 0.025 plus this example's tail gradient
  // (≈ 0.025), not the folded-back weight alone.
  EXPECT_NEAR(awm.WeightEstimate(5), 0.05f, 0.002f);
  // More of the same, with the stale member re-admitted by eviction.
  awm.Update(Example{SparseVector({2, 6, 9}, {-8.0f, 0.5f, 4.0f}), -1});
  awm.Update(Example{SparseVector({1, 5, 9}, {0.2f, 30.0f, 0.1f}), 1});
  awm.Update(Example{SparseVector({0, 2, 6, 9}, {1.0f, 1.0f, 1.0f, 1.0f}), -1});
  EXPECT_EQ(SnapshotCrc(awm), 0xcfeb264au);
}

}  // namespace
}  // namespace wmsketch
