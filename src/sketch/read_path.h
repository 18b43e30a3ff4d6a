#pragma once

// Shared *read* kernels: the Count-Sketch margin, the per-key median
// estimate, and the AWM's "exact active weight, else sketch estimate" read.
// Every live WM and AWM read (per call and batched), feature hashing's
// batched reads, and every frozen serving model (src/engine/serving.h)
// answer through these templates — each sketch read is defined once, so the
// live and frozen paths cannot drift apart.
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
#include "util/top_k_heap.h"

namespace wmsketch::readpath {

/// The fused one-pass margin factor · Σᵢ xᵢ·Σⱼ σⱼ(i)·table[hⱼ(i)], in the
/// seed evaluation order (bit-identical to simd::PlanMargin over the same
/// pairs). The row loops here walk the span with a running row offset: the
/// indexed form, table[j·rows[j].width() + bucket], measured ~15% slower
/// per call at depth 7.
template <typename Cells>
inline double FusedMargin(const Cells& table, std::span<const SignedBucketHash> rows,
                          const SparseVector& x, double factor) {
  double acc = 0.0;
  for (size_t i = 0; i < x.nnz(); ++i) {
    const uint32_t feature = x.index(i);
    double per_feature = 0.0;
    size_t row_start = 0;
    for (const SignedBucketHash& row : rows) {
      uint32_t bucket;
      float sign;
      row.BucketAndSign(feature, &bucket, &sign);
      per_feature += static_cast<double>(sign) * static_cast<double>(table[row_start + bucket]);
      row_start += row.width();
    }
    acc += per_feature * static_cast<double>(x.value(i));
  }
  return factor * acc;
}

/// The fused single-key point estimate float(factor · median_j(σ_j(key)·
/// table[h_j(key)])) — the one definition of a sketch point query. A single
/// row is its own median, so depth 1 (the AWM default, feature hashing)
/// skips the median network.
template <typename Cells>
inline float FusedEstimate(const Cells& table, std::span<const SignedBucketHash> rows,
                           uint32_t key, double factor) {
  float est[kMaxSketchDepth];  // rows.size() never exceeds it (Validate())
  float* next = est;
  size_t row_start = 0;
  for (const SignedBucketHash& row : rows) {
    uint32_t bucket;
    float sign;
    row.BucketAndSign(key, &bucket, &sign);
    *next++ = sign * table[row_start + bucket];
    row_start += row.width();
  }
  const float median = rows.size() == 1 ? est[0] : MedianInPlace(est, rows.size());
  return static_cast<float>(factor * static_cast<double>(median));
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

/// The AWM point estimate (Algorithm 2): a key in the active set answers with
/// its exact weight heap_scale·raw, any other key with the tail sketch's
/// FusedEstimate.
template <typename Cells>
inline float ActiveEstimate(const Cells& table, std::span<const SignedBucketHash> rows,
                            const TopKHeap& active, double heap_scale, uint32_t key,
                            double factor) {
  if (const std::optional<float> raw = active.Get(key)) {
    return static_cast<float>(heap_scale * static_cast<double>(*raw));
  }
  return FusedEstimate(table, rows, key, factor);
}

/// The AWM margin τ = Σ_{i∈S} heap_scale·S[i]·xᵢ + Σ_{i∉S} ŵᵢ·xᵢ, with the
/// active weights kept in double (no float rounding of heap_scale·raw).
template <typename Cells>
inline double ActiveMargin(const Cells& table, std::span<const SignedBucketHash> rows,
                           const TopKHeap& active, double heap_scale,
                           const SparseVector& x, double factor) {
  double acc = 0.0;
  for (size_t i = 0; i < x.nnz(); ++i) {
    const uint32_t feature = x.index(i);
    const std::optional<float> raw = active.Get(feature);
    const double w = raw.has_value()
                         ? heap_scale * static_cast<double>(*raw)
                         : static_cast<double>(FusedEstimate(table, rows, feature, factor));
    acc += w * static_cast<double>(x.value(i));
  }
  return acc;
}

/// Batched AWM point estimates: out[i] = ActiveEstimate(keys[i]).
template <typename Cells>
inline void ActiveEstimateBatch(const Cells& table, std::span<const SignedBucketHash> rows,
                                const TopKHeap& active, double heap_scale,
                                std::span<const uint32_t> keys, double factor, float* out) {
  for (size_t i = 0; i < keys.size(); ++i) {
    out[i] = ActiveEstimate(table, rows, active, heap_scale, keys[i], factor);
  }
}

}  // namespace wmsketch::readpath
