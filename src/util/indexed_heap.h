#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/status.h"

namespace wmsketch {

/// A flat open-addressing map from 32-bit keys to 32-bit values: one slot
/// array, linear probing at load factor ≤ ½, backward-shift deletion (no
/// tombstones) and no per-entry allocation. A slot holding kAbsent is empty,
/// so any key (0 and 0xFFFFFFFF included) is storable but kAbsent is not a
/// storable value. The position index of IndexedMinHeap.
class FlatIndex {
 public:
  static constexpr uint32_t kAbsent = 0xFFFFFFFFu;

  /// An index that holds `capacity` keys without rehashing.
  explicit FlatIndex(size_t capacity = 0) {
    if (capacity > 0) Rehash(std::bit_ceil(2 * capacity));
  }

  size_t size() const { return size_; }
  size_t capacity() const { return slots_.size() / 2; }
  size_t SlotBytes() const { return slots_.capacity() * sizeof(Slot); }
  /// Where the probe for `key` starts: the top bits of key·2³²/φ (Fibonacci
  /// hashing). Requires capacity() > 0.
  size_t HomeSlot(uint32_t key) const { return (key * 0x9E3779B1u) >> shift_; }

  /// The value stored for `key`, or nullptr.
  const uint32_t* Find(uint32_t key) const {
    if (slots_.empty()) return nullptr;
    const Slot& s = slots_[Probe(key)];
    return s.value == kAbsent ? nullptr : &s.value;
  }
  uint32_t* Find(uint32_t key) { return const_cast<uint32_t*>(std::as_const(*this).Find(key)); }

  /// The value for `key`, inserting an absent key with value kAbsent, which
  /// the caller must overwrite before the next call. Rehashes only when an
  /// insertion would pass load ½. Valid until the next insertion or Erase.
  uint32_t& operator[](uint32_t key) {
    if (2 * (size_ + 1) > slots_.size()) {
      if (uint32_t* v = Find(key)) return *v;
      Rehash(std::bit_ceil(2 * (size_ + 1)));
    }
    Slot& s = slots_[Probe(key)];
    if (s.value == kAbsent) {
      s.key = key;
      ++size_;
    }
    return s.value;
  }

  /// Removes `key`, which must be present, and returns its value.
  uint32_t Erase(uint32_t key) {
    size_t hole = Probe(key);
    const uint32_t value = slots_[hole].value;
    assert(value != kAbsent);
    const size_t mask = slots_.size() - 1;
    for (size_t j = (hole + 1) & mask; slots_[j].value != kAbsent; j = (j + 1) & mask) {
      // Slot j's key moves into the hole iff the hole is on its probe path.
      if (((j - HomeSlot(slots_[j].key)) & mask) >= ((j - hole) & mask)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole].value = kAbsent;
    --size_;
    return value;
  }

  void Clear() {
    for (Slot& s : slots_) s.value = kAbsent;
    size_ = 0;
  }

 private:
  struct Slot {
    uint32_t key;
    uint32_t value;
  };

  // The slot holding `key`, or the empty slot ending its probe chain.
  size_t Probe(uint32_t key) const {
    size_t i = HomeSlot(key);
    while (slots_[i].value != kAbsent && slots_[i].key != key) i = (i + 1) & (slots_.size() - 1);
    return i;
  }

  void Rehash(size_t slots) {  // `slots` is a power of two
    std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(slots, Slot{0, kAbsent}));
    shift_ = 32 - std::countr_zero(slots);
    for (const Slot& s : old) {
      if (s.value != kAbsent) slots_[Probe(s.key)] = s;
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
  int shift_ = 32;
};

/// A binary min-heap over (key, priority, value) entries with O(1) key
/// lookup, supporting the decrease/increase-key operations that the
/// active-set classifiers need.
///
/// * `key`      — 32-bit feature identifier (unique within the heap).
/// * `priority` — the heap order; the minimum-priority entry is at the root.
/// * `value`    — an arbitrary payload scalar (e.g. the model weight).
///
/// Used by: the AWM-Sketch active set and the simple-truncation baseline
/// (priority = |weight|), the probabilistic-truncation baseline (priority =
/// reservoir key), the Count-Min frequent-features baseline (priority =
/// estimated count), and the Space-Saving stream summary (priority = count).
class IndexedMinHeap {
 public:
  struct Entry {
    uint32_t key;
    double priority;
    float value;
  };

  /// A heap expecting up to `capacity` entries: its index is sized once for
  /// them (up to kMaxReserve), so filling it never rehashes.
  explicit IndexedMinHeap(size_t capacity = 0) : index_(std::min(capacity, kMaxReserve)) {}

  /// Number of entries currently stored.
  size_t size() const { return heap_.size(); }
  /// True iff the heap is empty.
  bool empty() const { return heap_.empty(); }

  /// True iff `key` is present.
  bool Contains(uint32_t key) const { return index_.Find(key) != nullptr; }

  /// Returns a pointer to the entry for `key`, or nullptr if absent. The
  /// pointer is invalidated by any mutating call.
  const Entry* Find(uint32_t key) const {
    const uint32_t* i = index_.Find(key);
    return i == nullptr ? nullptr : &heap_[*i];
  }

  /// Inserts `key` or overwrites its priority and value, restoring heap
  /// order, with one index probe.
  void Set(uint32_t key, double priority, float value) {
    uint32_t& pos = index_[key];
    if (pos == FlatIndex::kAbsent) {
      pos = static_cast<uint32_t>(heap_.size());
      heap_.push_back(Entry{key, priority, value});
    } else {
      heap_[pos].priority = priority;
      heap_[pos].value = value;
    }
    pos = Sift(pos);
  }

  /// One-probe read-modify-write: if `key` is present, `fn(Entry&)` rewrites
  /// its priority and/or value (not its key), heap order is restored and
  /// true returned; otherwise nothing changes.
  template <typename Fn>
  bool Modify(uint32_t key, Fn fn) {
    uint32_t* pos = index_.Find(key);
    if (pos == nullptr) return false;
    fn(heap_[*pos]);
    *pos = Sift(*pos);
    return true;
  }

  /// Removes the entry for `key`. Requires that `key` is present.
  Entry Remove(uint32_t key) {
    const size_t i = index_.Erase(key);
    const Entry removed = heap_[i];
    const Entry last = heap_.back();
    heap_.pop_back();
    if (i < heap_.size()) {
      heap_[i] = last;
      *index_.Find(last.key) = Sift(i);
    }
    return removed;
  }

  /// The minimum-priority entry. Requires non-empty.
  const Entry& Min() const {
    assert(!heap_.empty());
    return heap_[0];
  }

  /// Removes and returns the minimum-priority entry. Requires non-empty.
  Entry PopMin() {
    assert(!heap_.empty());
    return Remove(heap_[0].key);
  }

  /// Applies `fn(Entry&)` to every entry. The caller must guarantee that the
  /// mutation preserves the relative priority order of all entries (e.g.
  /// multiplying every priority by the same positive constant); the heap is
  /// not re-sifted. Used for O(n) global ℓ2-regularization decay.
  template <typename Fn>
  void MutateAllOrderPreserving(Fn fn) {
    for (Entry& e : heap_) fn(e);
  }

  /// All entries in unspecified (heap) order.
  const std::vector<Entry>& entries() const { return heap_; }
  /// Bytes held by the entry array and the index slots.
  size_t ResidentBytes() const { return heap_.capacity() * sizeof(Entry) + index_.SlotBytes(); }

  /// Replaces the heap's contents with `entries`, preserving their array
  /// order exactly (snapshot-restore support). Array order matters because
  /// eviction tie-breaking among equal priorities depends on it: restoring
  /// a sorted or re-sifted copy would make post-restore evictions diverge
  /// from the never-serialized run. Returns InvalidArgument for duplicate
  /// keys or a sequence violating the heap property.
  Status RestoreHeapOrder(std::vector<Entry> entries) {
    FlatIndex index(std::max(entries.size(), index_.capacity()));
    for (size_t i = 0; i < entries.size(); ++i) {
      uint32_t& pos = index[entries[i].key];
      if (pos != FlatIndex::kAbsent) return Status::InvalidArgument("duplicate heap key");
      pos = static_cast<uint32_t>(i);
      if (i > 0 && entries[(i - 1) / 2].priority > entries[i].priority) {
        return Status::InvalidArgument("entries violate the heap property");
      }
    }
    heap_ = std::move(entries);
    index_ = std::move(index);
    return Status::OK();
  }

  /// Removes all entries.
  void Clear() {
    heap_.clear();
    index_.Clear();
  }

 private:
  // Caps eager index sizing, so an untrusted or open-ended capacity does not
  // allocate up front; a larger heap grows by doubling.
  static constexpr size_t kMaxReserve = size_t{1} << 16;

  // Moves the entry at `i` to its heap position, up if it beats its parent
  // and else down, re-pointing the index of each entry it passes. Returns
  // its final position; the caller re-points its own index slot.
  uint32_t Sift(size_t i) {
    const Entry e = heap_[i];
    const size_t start = i;
    while (i > 0 && !(heap_[(i - 1) / 2].priority <= e.priority)) {  // a NaN moves up
      Place(i, heap_[(i - 1) / 2]);
      i = (i - 1) / 2;
    }
    for (const size_t n = heap_.size(); i >= start;) {  // down only if it did not move up
      size_t next = i;
      double best = e.priority;
      for (const size_t c : {2 * i + 1, 2 * i + 2}) {
        if (c < n && heap_[c].priority < best) {
          next = c;
          best = heap_[c].priority;
        }
      }
      if (next == i) break;
      Place(i, heap_[next]);
      i = next;
    }
    heap_[i] = e;
    return static_cast<uint32_t>(i);
  }

  void Place(size_t i, const Entry& entry) {
    heap_[i] = entry;
    *index_.Find(entry.key) = static_cast<uint32_t>(i);
  }

  std::vector<Entry> heap_;
  FlatIndex index_;  // key -> position in heap_
};

}  // namespace wmsketch
