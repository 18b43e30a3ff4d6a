#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "hash/tabulation.h"
#include "stream/sparse_vector.h"
#include "util/simd.h"

namespace wmsketch {

/// Sentinel first-offset of a lazy-plan slot that has not been filled yet
/// (see InitLazy/FillSlot): the AWM-Sketch hashes slots on first sketch
/// touch, and active-set members — whose weights never touch the sketch
/// table — are never filled. A real offset can never collide with it (it
/// would imply a 16 GiB table).
inline constexpr uint32_t kPlanNoEntry = 0xffffffffu;

/// Sentinel first-offset of an unfilled lazy slot whose feature was an
/// AWM active-set member when the example's margin was taken (MarkMember).
/// Like kPlanNoEntry it carries no hashes.
inline constexpr uint32_t kPlanMember = 0xfffffffeu;

namespace detail {

/// Appends one example's nnz × depth plan entries to the SoA buffers — the
/// single point where the eager hot path evaluates the row hashes: exactly
/// one BucketAndSign per (feature, row) pair.
inline void AppendPlanEntries(std::span<const SignedBucketHash> rows,
                              const SparseVector& x, std::vector<uint32_t>& offsets,
                              std::vector<float>& signs) {
  const uint32_t depth = static_cast<uint32_t>(rows.size());
  const size_t base = offsets.size();
  offsets.resize(base + x.nnz() * depth);
  signs.resize(base + x.nnz() * depth);
  uint32_t* off = offsets.data() + base;
  float* sg = signs.data() + base;
  for (size_t i = 0; i < x.nnz(); ++i) {
    const uint32_t feature = x.index(i);
    for (uint32_t j = 0; j < depth; ++j) {
      uint32_t bucket;
      float sign;
      rows[j].BucketAndSign(feature, &bucket, &sign);
      off[j] = j * rows[j].width() + bucket;
      sg[j] = sign;
      assert(off[j] < kPlanMember);
    }
    off += depth;
    sg += depth;
  }
}

}  // namespace detail

/// The per-example hash plan: all nnz × depth (bucket, sign) pairs of one
/// example against a stack of Count-Sketch hash rows, computed exactly once
/// into flat SoA buffers and then reused by every stage of an update —
/// margin accumulation, gradient scatter, and the per-feature raw-median
/// heap offers. Buckets are stored as absolute offsets into the row-major
/// depth×width table (j·width + bucket, as uint32_t) so the kernels index
/// the table directly; signs are ±1.0f.
///
/// This is a working buffer, not model state: it holds no learned
/// information, and the sketches obtain one per thread via TlsPlan() rather
/// than carrying one per instance (so clones, merges, and serialization
/// never see it).
class HashPlan {
 public:
  /// Hashes every (feature, row) pair of `x` once. All rows must share one
  /// width (they do: sketches construct them with a single width).
  void Build(std::span<const SignedBucketHash> rows, const SparseVector& x) {
    assert(!rows.empty());
    depth_ = static_cast<uint32_t>(rows.size());
    nnz_ = x.nnz();
    offsets_.clear();
    signs_.clear();
    detail::AppendPlanEntries(rows, x, offsets_, signs_);
  }

  /// Prepares an all-empty plan of `nnz` slots for lazy per-feature fills —
  /// the AWM-Sketch's mode: which features touch the sketch depends on live
  /// active-set membership, so slots are hashed on first use (FillSlot)
  /// instead of up front, and active-set members are never hashed at all.
  void InitLazy(uint32_t depth, size_t nnz) {
    assert(depth >= 1);
    depth_ = depth;
    nnz_ = nnz;
    offsets_.assign(nnz * depth, kPlanNoEntry);
    signs_.resize(nnz * depth);
  }

  /// Records that slot `i` of a lazy plan is an active-set member; the slot
  /// stays unhashed until a FillSlot.
  void MarkMember(size_t i) { offsets_[i * depth_] = kPlanMember; }

  /// Hashes `feature`'s (bucket, sign) pairs into slot `i` of a lazy plan.
  void FillSlot(std::span<const SignedBucketHash> rows, size_t i, uint32_t feature) {
    uint32_t* off = offsets_.data() + i * depth_;
    float* sg = signs_.data() + i * depth_;
    for (uint32_t j = 0; j < depth_; ++j) {
      uint32_t bucket;
      float sign;
      rows[j].BucketAndSign(feature, &bucket, &sign);
      off[j] = j * rows[j].width() + bucket;
      sg[j] = sign;
    }
  }

  /// The flat kernel view of the plan (only valid for unmasked builds:
  /// kernels walk every entry).
  simd::PlanView View() const {
    return simd::PlanView{offsets_.data(), signs_.data(), nnz_, depth_};
  }

  /// True when feature slot `i` carries hashes (always true for Build).
  bool has(size_t i) const { return offsets_[i * depth_] < kPlanMember; }

  /// True when slot `i` was marked by MarkMember and not filled since.
  bool member(size_t i) const { return offsets_[i * depth_] == kPlanMember; }

  /// The depth offsets / signs of feature slot `i` (the per-feature slice
  /// driving heap offers and AWM tail queries).
  const uint32_t* offsets(size_t i) const { return offsets_.data() + i * depth_; }
  const float* signs(size_t i) const { return signs_.data() + i * depth_; }

  size_t nnz() const { return nnz_; }
  uint32_t depth() const { return depth_; }

 private:
  std::vector<uint32_t> offsets_;
  std::vector<float> signs_;
  size_t nnz_ = 0;
  uint32_t depth_ = 1;
};

/// A whole batch of hash plans in one arena: UpdateBatch hashes every
/// example up front (amortizing allocation across the batch) and then walks
/// the per-example views, software-prefetching the table rows of example
/// e+1 while example e updates.
class HashPlanArena {
 public:
  void Build(std::span<const SignedBucketHash> rows, std::span<const Example> batch) {
    assert(!rows.empty());
    depth_ = static_cast<uint32_t>(rows.size());
    offsets_.clear();
    signs_.clear();
    starts_.clear();
    starts_.reserve(batch.size() + 1);
    size_t total = 0;
    for (const Example& ex : batch) total += ex.x.nnz() * depth_;
    offsets_.reserve(total);
    signs_.reserve(total);
    for (const Example& ex : batch) {
      starts_.push_back(offsets_.size());
      detail::AppendPlanEntries(rows, ex.x, offsets_, signs_);
    }
    starts_.push_back(offsets_.size());
  }

  size_t size() const { return starts_.empty() ? 0 : starts_.size() - 1; }

  /// The plan view of example `e`.
  simd::PlanView View(size_t e) const {
    const size_t begin = starts_[e];
    const size_t entries = starts_[e + 1] - begin;
    return simd::PlanView{offsets_.data() + begin, signs_.data() + begin,
                          depth_ == 0 ? 0 : entries / depth_, depth_};
  }

  /// Prefetches the table cells example `e` will touch (read-then-write).
  /// Arena plans are always fully hashed, so every offset is real.
  void PrefetchTable(const float* table, size_t e) const {
    const size_t begin = starts_[e];
    const size_t end = starts_[e + 1];
    for (size_t k = begin; k < end; ++k) {
      __builtin_prefetch(table + offsets_[k], /*rw=*/1, /*locality=*/1);
    }
  }

 private:
  std::vector<uint32_t> offsets_;
  std::vector<float> signs_;
  std::vector<size_t> starts_;
  uint32_t depth_ = 1;
};

/// Thread-local plan / arena buffers shared by the single-hash hot paths.
/// Each Build overwrites the previous contents, so a caller must finish
/// consuming a plan before anything else on the thread builds a new one
/// (updates never nest, so this holds structurally).
HashPlan& TlsPlan();
HashPlanArena& TlsArena();

}  // namespace wmsketch
