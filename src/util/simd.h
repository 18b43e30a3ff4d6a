#pragma once

#include <cstddef>
#include <cstdint>

namespace wmsketch::simd {

/// A flat view of one example's hash plan (see sketch/hash_plan.h): the
/// nnz × depth (table-offset, sign) pairs of an example, feature-major, so
/// entry (i, j) sits at i·depth + j. `offsets` are absolute offsets into the
/// row-major depth×width table (j·width + bucket), `signs` are ±1.0f.
struct PlanView {
  const uint32_t* offsets = nullptr;
  const float* signs = nullptr;
  size_t nnz = 0;
  uint32_t depth = 1;

  size_t entries() const { return nnz * depth; }
};

/// True when the CPU supports AVX2+FMA and the vector kernel was compiled in
/// (the build had WMS_SIMD on and targets x86-64).
bool Available();

/// True when the AVX2 kernel is actually dispatched to: Available(), not
/// killed by the WMS_SIMD_DISABLE environment variable, and not turned off
/// via SetEnabled(false).
bool Enabled();

/// Runtime toggle, used by bench_hot_path and the kernel tests to compare
/// the two paths inside one process. Forcing `on` without hardware support
/// is ignored (Enabled() stays false).
void SetEnabled(bool on);

/// "avx2" or "scalar" — the path Enabled() currently selects.
const char* ActiveKernel();

/// Lower-middle order statistic of v[0..n) for n >= 8 — the median path for
/// sketch depths beyond the util/math.h sorting networks, and the one
/// dispatched vector kernel. The AVX2 variant is a branchless rank-counting
/// selection (8 comparisons per instruction, no data-dependent
/// partitioning); the scalar fallback is nth_element. Both return the value
/// of the same order statistic, so the paths are bit-identical; only the
/// scalar path reorders `v`.
float MedianLarge(float* v, size_t n);

// The plan and table kernels below are plain scalar loops on every path:
// none of their vector versions won on a measured workload.

/// out[e] = signs[e] · table[offsets[e]] — the per-feature plan read behind
/// the update paths' raw medians.
void GatherSigned(const float* table, const uint32_t* offsets, const float* signs,
                  size_t n, float* out);

/// The plan-driven margin accumulation Σᵢ xᵢ · Σⱼ signs[i·d+j] ·
/// table[offsets[i·d+j]], with the per-feature inner sums and the outer
/// accumulation in double, in exactly the seed evaluation order — one fused
/// pass over the plan.
double PlanMargin(const float* table, const PlanView& plan, const float* values);

/// The signed gradient scatter table[offsets[i·d+j]] -= float(step·values[i]
/// · signs[i·d+j]) over the whole plan, in plan order (so duplicate offsets
/// see the same store sequence as the per-feature loop). Only valid when no
/// other read is interleaved per feature (no tracking heap); the
/// heap-tracking sketches scatter per-feature instead.
void PlanScatter(float* table, const PlanView& plan, const float* values, double step);

/// dst[i] += float(ratio · src[i]) — the MergeScaled table sweep. The double
/// product is rounded to float before the add.
void MergeScaledTable(float* dst, const float* src, size_t n, double ratio);

/// t[i] *= f — the lazy-rescale table sweep.
void ScaleTable(float* t, size_t n, float f);

/// Σ t[i]² accumulated in double, left to right.
double L2NormSquared(const float* t, size_t n);

}  // namespace wmsketch::simd
