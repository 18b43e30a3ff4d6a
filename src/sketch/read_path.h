#pragma once

// Shared *read* kernels: the Count-Sketch margin and the per-key median
// estimate. The live classifiers (Learner::PredictBatch / EstimateBatch on
// WM, AWM, and feature hashing) and the frozen serving models
// (src/engine/serving.h) answer through these same templates, so the two
// paths cannot drift apart.
//
// Each kernel is templated on the cell container: a `const float*` (the live
// contiguous arena) or a PagedView<float> (a published snapshot's pages,
// util/paged_table.h). Both index as `table[off]` with the same
// j·width + bucket offsets, and the hash evaluation order, per-feature double
// accumulation and median networks are shared — so a frozen model answers
// bit-identically to the live model it was captured from.
//
// A read consumes its hashes once (there is no scatter or heap stage to
// share them with, unlike an update), so every kernel hashes, reads and
// accumulates in one fused pass with nothing materialized: one BucketAndSign
// per (feature, row) pair, no plan buffer, no allocation.

#include <cstdint>
#include <optional>
#include <span>

#include "core/budget.h"
#include "hash/tabulation.h"
#include "stream/sparse_vector.h"
#include "util/math.h"
#include "util/paged_table.h"

namespace wmsketch::readpath {

/// The fused one-pass margin factor · Σᵢ xᵢ·Σⱼ σⱼ(i)·table[hⱼ(i)], in the
/// seed evaluation order (bit-identical to simd::PlanMargin over the same
/// pairs).
template <typename Cells>
inline double FusedMargin(const Cells& table, std::span<const SignedBucketHash> rows,
                          const SparseVector& x, double factor) {
  double acc = 0.0;
  for (size_t i = 0; i < x.nnz(); ++i) {
    const uint32_t feature = x.index(i);
    double per_feature = 0.0;
    for (size_t j = 0; j < rows.size(); ++j) {
      uint32_t bucket;
      float sign;
      rows[j].BucketAndSign(feature, &bucket, &sign);
      per_feature += static_cast<double>(sign) *
                     static_cast<double>(table[j * rows[j].width() + bucket]);
    }
    acc += per_feature * static_cast<double>(x.value(i));
  }
  return factor * acc;
}

/// The fused single-key point estimate float(factor · median_j(σ_j(key)·
/// table[h_j(key)])) — the one definition of a sketch point query.
template <typename Cells>
inline float FusedEstimate(const Cells& table, std::span<const SignedBucketHash> rows,
                           uint32_t key, double factor) {
  float est[kMaxSketchDepth];  // rows.size() never exceeds it (Validate())
  for (size_t j = 0; j < rows.size(); ++j) {
    uint32_t bucket;
    float sign;
    rows[j].BucketAndSign(key, &bucket, &sign);
    est[j] = sign * table[j * rows[j].width() + bucket];
  }
  return static_cast<float>(factor *
                            static_cast<double>(MedianInPlace(est, rows.size())));
}

/// Batched margins: out[e] = FusedMargin(batch[e].x).
template <typename Cells>
inline void MarginBatch(const Cells& table, std::span<const SignedBucketHash> rows,
                        std::span<const Example> batch, double factor, double* out) {
  for (size_t e = 0; e < batch.size(); ++e) {
    out[e] = FusedMargin(table, rows, batch[e].x, factor);
  }
}

/// Batched point estimates: out[i] = FusedEstimate(keys[i]).
template <typename Cells>
inline void EstimateBatch(const Cells& table, std::span<const SignedBucketHash> rows,
                          std::span<const uint32_t> keys, double factor, float* out) {
  for (size_t i = 0; i < keys.size(); ++i) {
    out[i] = FusedEstimate(table, rows, keys[i], factor);
  }
}

/// EstimateBatch for models with an exact active set in front of the sketch
/// (the AWM): keys resolved by `lookup` (returning the exact true-scale
/// weight, or no value) answer from it, the rest from the sketch.
template <typename Cells, typename ActiveLookup>
inline void ActiveEstimateBatch(const Cells& table, std::span<const SignedBucketHash> rows,
                                std::span<const uint32_t> keys, double factor,
                                ActiveLookup&& lookup, float* out) {
  for (size_t i = 0; i < keys.size(); ++i) {
    const std::optional<float> exact = lookup(keys[i]);
    out[i] = exact.has_value() ? *exact : FusedEstimate(table, rows, keys[i], factor);
  }
}

}  // namespace wmsketch::readpath
