#include "core/awm_sketch.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>

#include "sketch/hash_plan.h"
#include "sketch/merge_compat.h"
#include "sketch/read_path.h"
#include "util/math.h"
#include "util/random.h"
#include "util/simd.h"

namespace wmsketch {

namespace {

constexpr double kMinScale = 1e-25;

/// The frozen AWM read model: a copy of the active-set heap of *raw* weights
/// plus its scale (so margins keep the live path's double-precision
/// heap_scale·raw products), and the published pages of the tail sketch
/// (shared across snapshots; only dirtied pages were copied). Answers are
/// bit-identical to what the live model answered at capture time.
class AwmReadModel final : public ReadModel {
 public:
  AwmReadModel(TopKHeap active, double heap_scale,
               std::vector<SignedBucketHash> rows, PageSet<float> pages,
               double estimate_factor)
      : active_(std::move(active)),
        heap_scale_(heap_scale),
        rows_(std::move(rows)),
        pages_(std::move(pages)),
        estimate_factor_(estimate_factor) {}

  double PredictMargin(const SparseVector& x) const override {
    return readpath::ActiveMargin(pages_.view(), rows_, active_, heap_scale_, x,
                                  estimate_factor_);
  }

  float Estimate(uint32_t feature) const override {
    return readpath::ActiveEstimate(pages_.view(), rows_, active_, heap_scale_, feature,
                                    estimate_factor_);
  }

  void EstimateBatch(std::span<const uint32_t> features, float* out) const override {
    readpath::ActiveEstimateBatch(pages_.view(), rows_, active_, heap_scale_, features,
                                  estimate_factor_, out);
  }

  size_t ResidentBytes() const override {
    return pages_.ResidentBytes() + active_.ResidentBytes();
  }

 private:
  TopKHeap active_;  // raw active-set weights
  double heap_scale_;
  std::vector<SignedBucketHash> rows_;
  PageSet<float> pages_;
  double estimate_factor_;  // √s·α for the tail sketch
};

}  // namespace

AwmSketch::AwmSketch(const AwmSketchConfig& config, const LearnerOptions& opts)
    : config_(config),
      opts_(opts),
      sqrt_depth_(std::sqrt(static_cast<double>(config.depth))),
      heap_(config.heap_capacity) {
  assert(IsPowerOfTwo(config.width));
  assert(config.depth >= 1 && config.depth <= kMaxDepth);
  assert(config.heap_capacity >= 1);
  SplitMix64 sm(opts.seed);
  rows_.reserve(config.depth);
  for (uint32_t j = 0; j < config.depth; ++j) rows_.emplace_back(sm.Next(), config.width);
  table_ = PagedTable(static_cast<size_t>(config.width) * config.depth);
}

double AwmSketch::PredictMargin(const SparseVector& x) const {
  // τ = Σ_{i∈S} S[i]·x_i + zᵀR·x_tail (Algorithm 2's prediction split).
  // Read-only margins run the fused template (each tail pair hashed once);
  // updates route through PredictMarginWithPlan so the tail hashes are
  // reused by the gradient stage.
  return readpath::ActiveMargin(table_.data(), rows_, heap_, heap_scale_, x,
                                sqrt_depth_ * sketch_scale_);
}

double AwmSketch::PredictMarginWithPlan(const SparseVector& x, HashPlan& plan) const {
  // As PredictMargin, but each tail feature's hashes land in its plan slot
  // (filled on first use) where the gradient stage below reuses them, and
  // each member's slot is marked so that stage probes the heap only there.
  double acc = 0.0;
  for (size_t i = 0; i < x.nnz(); ++i) {
    const uint32_t feature = x.index(i);
    const std::optional<float> exact = heap_.Get(feature);
    double w;
    if (exact.has_value()) {
      plan.MarkMember(i);
      w = heap_scale_ * static_cast<double>(*exact);
    } else {
      w = static_cast<double>(SketchQueryFromPlan(plan, i, feature));
    }
    acc += w * static_cast<double>(x.value(i));
  }
  return acc;
}

void AwmSketch::EstimateBatch(std::span<const uint32_t> features, float* out) const {
  readpath::ActiveEstimateBatch(table_.data(), rows_, heap_, heap_scale_, features,
                                sqrt_depth_ * sketch_scale_, out);
}

std::unique_ptr<const ReadModel> AwmSketch::MakeReadModel() const {
  return std::make_unique<AwmReadModel>(heap_, heap_scale_, rows_,
                                        table_.SharePages(), sqrt_depth_ * sketch_scale_);
}

float AwmSketch::SketchQuery(uint32_t feature) const {
  return readpath::FusedEstimate(table_.data(), rows_, feature, sqrt_depth_ * sketch_scale_);
}

float AwmSketch::SketchQueryFromPlan(HashPlan& plan, size_t i, uint32_t feature) const {
  if (!plan.has(i)) plan.FillSlot(rows_, i, feature);  // first touch: hash once
  float est[kMaxDepth];
  simd::GatherSigned(table_.data(), plan.offsets(i), plan.signs(i), plan.depth(), est);
  const float raw = MedianInPlace(est, plan.depth());
  return static_cast<float>(sqrt_depth_ * sketch_scale_ * static_cast<double>(raw));
}

void AwmSketch::SketchAdd(uint32_t feature, double delta) {
  // Inverse of SketchQuery's scaling: the stored cell moves by
  // σ·delta/(√s·α) so the true estimate moves by delta in every row.
  const double raw_delta = delta / (sqrt_depth_ * sketch_scale_);
  for (uint32_t j = 0; j < config_.depth; ++j) {
    uint32_t bucket;
    float sign;
    rows_[j].BucketAndSign(feature, &bucket, &sign);
    table_.MarkDirtyOffset(static_cast<size_t>(j) * config_.width + bucket);
    Row(j)[bucket] += static_cast<float>(static_cast<double>(sign) * raw_delta);
  }
}

void AwmSketch::SketchAddFromPlan(HashPlan& plan, size_t i, uint32_t feature,
                                  double delta) {
  if (!plan.has(i)) plan.FillSlot(rows_, i, feature);  // first touch: hash once
  const double raw_delta = delta / (sqrt_depth_ * sketch_scale_);
  const uint32_t* off = plan.offsets(i);
  const float* sg = plan.signs(i);
  table_.MarkPlanDirty(off, plan.depth());
  float* tbl = table_.data();
  for (uint32_t j = 0; j < plan.depth(); ++j) {
    tbl[off[j]] += static_cast<float>(static_cast<double>(sg[j]) * raw_delta);
  }
}

double AwmSketch::Update(const SparseVector& x, int8_t y) {
  // One lazy hash plan per example: a slot is hashed the first time its
  // feature touches the sketch (margin query, candidate query, or tail
  // scatter) and reused from then on. Active-set members — whose weights
  // live in the heap and never touch the sketch — are never hashed, exactly
  // as in the pre-plan code.
  HashPlan& plan = TlsPlan();
  plan.InitLazy(config_.depth, x.nnz());
  return UpdateWithPlan(x, y, plan);
}

double AwmSketch::UpdateWithPlan(const SparseVector& x, int8_t y, HashPlan& plan) {
  const double margin = PredictMarginWithPlan(x, plan);
  ++t_;
  const double eta = opts_.rate.Rate(t_);
  const double g = opts_.loss->Derivative(static_cast<double>(y) * margin);

  // ℓ2 decay on both structures: S ← (1−λη)S and z ← (1−λη)z, via scales.
  if (opts_.lambda > 0.0) {
    const double decay = 1.0 - eta * opts_.lambda;
    heap_scale_ *= decay;
    sketch_scale_ *= decay;
  }

  const double step = eta * static_cast<double>(y) * g;  // subtracted per unit x_i
  for (size_t i = 0; i < x.nnz(); ++i) {
    const uint32_t feature = x.index(i);
    const double xi = static_cast<double>(x.value(i));
    // Exact gradient on an active-set member, written through the scale.
    // Only a slot that was a member when the margin was taken can be one
    // now: this loop inserts just the feature it is processing, and a
    // SparseVector's indices are strictly increasing, so no later slot shares
    // that key. A member evicted earlier in this example fails its Add and
    // takes the tail path below.
    if (plan.member(i) && heap_.Add(feature, static_cast<float>(-step * xi / heap_scale_))) {
      continue;
    }
    // Candidate weight for a tail feature.
    const double w_tilde =
        static_cast<double>(SketchQueryFromPlan(plan, i, feature)) - step * xi;
    if (!heap_.full()) {
      heap_.Set(feature, static_cast<float>(w_tilde / heap_scale_));
      continue;
    }
    const FeatureWeight min = heap_.Min();
    const double min_true = heap_scale_ * static_cast<double>(min.weight);
    if (std::fabs(w_tilde) > std::fabs(min_true)) {
      // Fold the evictee back into the sketch so its estimate matches its
      // exact weight, then hand its slot to the newcomer. The newcomer's
      // prior sketch mass is left in place (lazy update, Sec. 5.2). The
      // evictee is generally not a feature of x, so it pays the direct
      // (hashing) query/add path.
      heap_.PopMin();
      SketchAdd(min.feature, min_true - static_cast<double>(SketchQuery(min.feature)));
      heap_.Set(feature, static_cast<float>(w_tilde / heap_scale_));
    } else {
      // Tail update: apply the gradient inside the sketch via the plan.
      SketchAddFromPlan(plan, i, feature, -step * xi);
    }
  }
  MaybeRescale();
  return margin;
}

void AwmSketch::UpdateBatch(std::span<const Example> batch, std::vector<double>* margins) {
  // Unlike WM/feature hashing, the AWM cannot hash a batch up front: which
  // features touch the sketch depends on live active-set membership, which
  // each update mutates. It reuses one lazy per-thread plan across the
  // batch instead (allocation amortizes via the TLS buffers); bit-identical
  // to the per-example loop.
  HashPlan& plan = TlsPlan();
  for (const Example& ex : batch) {
    plan.InitLazy(config_.depth, ex.x.nnz());
    const double margin = UpdateWithPlan(ex.x, ex.y, plan);
    if (margins != nullptr) margins->push_back(margin);
  }
}

Status AwmSketch::CanMerge(const BudgetedClassifier& other) const {
  const auto* o = dynamic_cast<const AwmSketch*>(&other);
  if (o == nullptr) {
    return Status::InvalidArgument("awm merge: cannot merge a '" + other.Name() +
                                   "' model into an awm sketch");
  }
  WMS_RETURN_NOT_OK(CheckMergeCompatible(
      "awm", SketchShape{config_.width, config_.depth, opts_.seed},
      SketchShape{o->config_.width, o->config_.depth, o->opts_.seed}));
  return CheckCapacityCompatible("awm", "active-set capacity", config_.heap_capacity,
                                 o->config_.heap_capacity);
}

Status AwmSketch::MergeScaled(const BudgetedClassifier& other, double coeff) {
  WMS_RETURN_NOT_OK(CanMerge(other));
  if (!std::isfinite(coeff)) {
    return Status::InvalidArgument("awm merge: coefficient must be finite");
  }
  const AwmSketch& o = static_cast<const AwmSketch&>(other);

  // 1. Combined weights of the union of the two active sets, computed
  //    *before* any table mutation. Each side contributes its model's
  //    estimate: the exact active weight when tracked, the tail-sketch
  //    estimate otherwise. (A member's stale sketch mass — left in place by
  //    the lazy eviction scheme — is ignored here exactly as each side's
  //    WeightEstimate ignores it.)
  std::vector<uint32_t> union_ids;
  union_ids.reserve(heap_.size() + o.heap_.size());
  for (const FeatureWeight& fw : heap_.Entries()) union_ids.push_back(fw.feature);
  for (const FeatureWeight& fw : o.heap_.Entries()) union_ids.push_back(fw.feature);
  std::sort(union_ids.begin(), union_ids.end());
  union_ids.erase(std::unique(union_ids.begin(), union_ids.end()), union_ids.end());
  std::vector<std::pair<uint32_t, double>> merged;
  merged.reserve(union_ids.size());
  for (const uint32_t feature : union_ids) {
    merged.emplace_back(feature, static_cast<double>(WeightEstimate(feature)) +
                                     coeff * static_cast<double>(o.WeightEstimate(feature)));
  }

  // 2. Combine the tail tables in this sketch's raw representation:
  //    z = α_a·v_a + c·α_b·v_b = α_a·(v_a + (c·α_b/α_a)·v_b). The sweep
  //    writes every cell, so the whole table COWs.
  const double ratio = coeff * o.sketch_scale_ / sketch_scale_;
  table_.MarkAllDirty();
  simd::MergeScaledTable(table_.data(), o.table_.data(), table_.size(), ratio);

  // 3. The |S| largest-magnitude union members (ties: ascending id, for
  //    determinism) take the exact active-set slots; every other member is
  //    folded into the merged tail sketch exactly as an eviction would be —
  //    its slot's estimate is corrected to its merged weight.
  std::stable_sort(merged.begin(), merged.end(), [](const auto& a, const auto& b) {
    const double ma = std::fabs(a.second), mb = std::fabs(b.second);
    if (ma != mb) return ma > mb;
    return a.first < b.first;
  });
  const size_t keep = std::min(config_.heap_capacity, merged.size());
  TopKHeap rebuilt(config_.heap_capacity);
  for (size_t i = 0; i < keep; ++i) {
    rebuilt.Set(merged[i].first, static_cast<float>(merged[i].second / heap_scale_));
  }
  heap_ = std::move(rebuilt);
  for (size_t i = keep; i < merged.size(); ++i) {
    SketchAdd(merged[i].first,
              merged[i].second - static_cast<double>(SketchQuery(merged[i].first)));
  }
  MaybeRescale();
  return Status::OK();
}

Status AwmSketch::ScaleWeights(double factor) {
  if (!(factor > 0.0)) {
    return Status::InvalidArgument("awm scale: factor must be positive");
  }
  // Both structures carry a lazy global scale, so this is O(1).
  heap_scale_ *= factor;
  sketch_scale_ *= factor;
  MaybeRescale();
  return Status::OK();
}

Status AwmSketch::SetSteps(uint64_t steps) {
  t_ = steps;
  return Status::OK();
}

std::unique_ptr<BudgetedClassifier> AwmSketch::Clone() const {
  return std::make_unique<AwmSketch>(*this);
}

void AwmSketch::MaybeRescale() {
  if (sketch_scale_ < kMinScale) {
    table_.MarkAllDirty();
    simd::ScaleTable(table_.data(), table_.size(), static_cast<float>(sketch_scale_));
    sketch_scale_ = 1.0;
  }
  if (heap_scale_ < kMinScale) {
    heap_.Scale(static_cast<float>(heap_scale_));
    heap_scale_ = 1.0;
  }
}

float AwmSketch::WeightEstimate(uint32_t feature) const {
  return readpath::ActiveEstimate(table_.data(), rows_, heap_, heap_scale_, feature,
                                  sqrt_depth_ * sketch_scale_);
}

std::vector<FeatureWeight> AwmSketch::TopK(size_t k) const {
  std::vector<FeatureWeight> out;
  out.reserve(heap_.size());
  for (const FeatureWeight& fw : heap_.Entries()) {
    out.push_back(
        FeatureWeight{fw.feature, static_cast<float>(heap_scale_ * fw.weight)});
  }
  SortByMagnitudeAndTruncate(out, k);
  return out;
}

}  // namespace wmsketch
