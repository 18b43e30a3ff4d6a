#include "linear/classifier.h"

#include <limits>
#include <memory>

namespace wmsketch {

Status BudgetedClassifier::CanMerge(const BudgetedClassifier& other) const {
  (void)other;
  return Status::Unimplemented(Name() + " does not support merging");
}

Status BudgetedClassifier::MergeScaled(const BudgetedClassifier& other, double coeff) {
  (void)other;
  (void)coeff;
  return Status::Unimplemented(Name() + " does not support merging");
}

Status BudgetedClassifier::ScaleWeights(double factor) {
  (void)factor;
  return Status::Unimplemented(Name() + " does not support weight scaling");
}

Status BudgetedClassifier::SetSteps(uint64_t steps) {
  (void)steps;
  return Status::Unimplemented(Name() + " does not support step overrides");
}

std::unique_ptr<BudgetedClassifier> BudgetedClassifier::Clone() const { return nullptr; }

namespace {

/// The default frozen read model: a copy of every tracked (feature, weight)
/// pair in a TopKHeap, the store the heap-backed baselines keep their
/// weights in. Untracked features estimate 0; margins are ReadModel's linear
/// functional of the estimates.
class HeapReadModel final : public ReadModel {
 public:
  explicit HeapReadModel(TopKHeap weights) : weights_(std::move(weights)) {}

  float Estimate(uint32_t feature) const override {
    return weights_.Get(feature).value_or(0.0f);
  }

  size_t ResidentBytes() const override { return weights_.ResidentBytes(); }

 private:
  TopKHeap weights_;
};

template <typename EstimateFn>
std::vector<FeatureWeight> ScanTopKOf(const EstimateFn& estimate, size_t k,
                                      uint32_t dimension) {
  TopKHeap heap(k);
  for (uint32_t i = 0; i < dimension; ++i) {
    const float w = estimate(i);
    if (w == 0.0f) continue;
    heap.Offer(i, w);
  }
  return heap.TopK(k);
}

}  // namespace

std::unique_ptr<const ReadModel> BudgetedClassifier::MakeReadModel() const {
  const std::vector<FeatureWeight> all = TopK(std::numeric_limits<size_t>::max());
  TopKHeap weights(all.size());
  for (const FeatureWeight& fw : all) weights.Set(fw.feature, fw.weight);
  return std::make_unique<HeapReadModel>(std::move(weights));
}

std::vector<FeatureWeight> ScanTopK(const BudgetedClassifier& model, size_t k,
                                    uint32_t dimension) {
  return ScanTopKOf([&model](uint32_t i) { return model.WeightEstimate(i); }, k, dimension);
}

std::vector<FeatureWeight> ScanTopK(const ReadModel& model, size_t k, uint32_t dimension) {
  return ScanTopKOf([&model](uint32_t i) { return model.Estimate(i); }, k, dimension);
}

}  // namespace wmsketch
