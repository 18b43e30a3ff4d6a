#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace wmsketch {

/// A bounded lock-free single-producer/single-consumer ring buffer — the
/// hand-off queue between the sharding thread and one training worker.
///
/// Exactly one thread may call TryPush and exactly one thread may call
/// TryPop; under that contract the only shared state is the two monotonic
/// cursors, synchronized release/acquire. Each side keeps a local cache of
/// the other side's cursor so the common case touches one shared atomic, not
/// two (the folly/rigtorp ProducerConsumerQueue layout). Capacity is rounded
/// up to a power of two so the cursor-to-slot mapping is a mask. Slots are
/// recycled rather than moved through: the ring keeps `capacity` items'
/// storage, each slot up to the size of the largest item pushed.
template <typename T>
class SpscRing {
 public:
  /// Constructs a ring holding at most `capacity` items (rounded up to a
  /// power of two; minimum 2).
  explicit SpscRing(size_t capacity) {
    size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    capacity_ = cap;
    mask_ = cap - 1;
    slots_.resize(cap);
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  /// Producer side: copy-assigns `item` into the next slot unless the ring
  /// is full. The slot still holds the storage TryPop swapped into it, so
  /// for a heap-owning T (a vector, an Example) the copy reuses that
  /// capacity and allocates only when `item` outgrows it.
  bool TryPush(const T& item) {
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_cache_ >= capacity_) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (tail - head_cache_ >= capacity_) return false;
    }
    slots_[tail & mask_] = item;
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side: swaps the oldest item into `*out` unless the ring is
  /// empty. `*out`'s previous contents go back into the slot for the next
  /// TryPush to copy over, so storage circulates between the two sides
  /// instead of being freed on one thread and allocated on the other.
  bool TryPop(T* out) {
    const uint64_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head == tail_cache_) return false;
    }
    using std::swap;
    swap(*out, slots_[head & mask_]);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// True iff no items are in flight (callable from either side; the answer
  /// is exact only once the other side has quiesced).
  bool Empty() const {
    return head_.load(std::memory_order_acquire) == tail_.load(std::memory_order_acquire);
  }

  size_t capacity() const { return capacity_; }

 private:
  size_t capacity_ = 0;
  uint64_t mask_ = 0;
  std::vector<T> slots_;
  // Consumer cursor + the producer's cached copy of it, on separate cache
  // lines from the producer cursor to avoid false sharing on the hot path.
  alignas(64) std::atomic<uint64_t> head_{0};
  alignas(64) std::atomic<uint64_t> tail_{0};
  alignas(64) uint64_t head_cache_ = 0;  // producer-owned
  alignas(64) uint64_t tail_cache_ = 0;  // consumer-owned
};

}  // namespace wmsketch
