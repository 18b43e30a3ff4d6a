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

WeightEstimator BudgetedClassifier::EstimatorSnapshot() const {
  // Heap-backed methods (truncation, Space-Saving, CM-FF) keep every nonzero
  // weight behind a tracked identifier, so the full TopK *is* the model.
  const std::vector<FeatureWeight> all = TopK(std::numeric_limits<size_t>::max());
  auto weights = std::make_shared<TopKHeap>(all.size());
  for (const FeatureWeight& fw : all) weights->Set(fw.feature, fw.weight);
  return [weights](uint32_t feature) { return weights->Get(feature).value_or(0.0f); };
}

namespace {

/// The default frozen read model: a WeightEstimator closure plus the linear
/// margin over it. Exact for every method whose live PredictMargin is the
/// linear functional of its tracked weights (the Sec. 7 baselines apply one
/// shared lazy scale per margin where this applies it per frozen term, so
/// agreement is up to float rounding of the individual estimates).
class EstimatorReadModel final : public ReadModel {
 public:
  explicit EstimatorReadModel(WeightEstimator estimator)
      : estimator_(std::move(estimator)) {}

  double PredictMargin(const SparseVector& x) const override {
    double acc = 0.0;
    for (size_t i = 0; i < x.nnz(); ++i) {
      acc += static_cast<double>(estimator_(x.index(i))) * static_cast<double>(x.value(i));
    }
    return acc;
  }

  float Estimate(uint32_t feature) const override { return estimator_(feature); }

 private:
  WeightEstimator estimator_;
};

}  // namespace

std::unique_ptr<const ReadModel> BudgetedClassifier::MakeReadModel() const {
  return std::make_unique<EstimatorReadModel>(EstimatorSnapshot());
}

std::vector<FeatureWeight> ScanTopK(const BudgetedClassifier& model, size_t k,
                                    uint32_t dimension) {
  return ScanTopK([&model](uint32_t i) { return model.WeightEstimate(i); }, k, dimension);
}

std::vector<FeatureWeight> ScanTopK(const WeightEstimator& estimator, size_t k,
                                    uint32_t dimension) {
  TopKHeap heap(k);
  for (uint32_t i = 0; i < dimension; ++i) {
    const float w = estimator(i);
    if (w == 0.0f) continue;
    heap.Offer(i, w);
  }
  return heap.TopK(k);
}

}  // namespace wmsketch
