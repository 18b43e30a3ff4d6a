// Unit and property tests for the indexed min-heap and the magnitude top-K
// tracker — the data structures under every active-set / truncation method.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <limits>
#include <map>
#include <unordered_map>
#include <vector>

#include "util/indexed_heap.h"
#include "util/random.h"
#include "util/top_k_heap.h"

namespace wmsketch {
namespace {

// ---------------------------------------------------------- IndexedMinHeap

TEST(IndexedMinHeapTest, EmptyBasics) {
  IndexedMinHeap heap;
  EXPECT_TRUE(heap.empty());
  EXPECT_EQ(heap.size(), 0u);
  EXPECT_FALSE(heap.Contains(1));
  EXPECT_EQ(heap.Find(1), nullptr);
}

TEST(IndexedMinHeapTest, InsertFindMin) {
  IndexedMinHeap heap;
  heap.Set(10, 3.0, 1.0f);
  heap.Set(20, 1.0, 2.0f);
  heap.Set(30, 2.0, 3.0f);
  EXPECT_EQ(heap.size(), 3u);
  EXPECT_EQ(heap.Min().key, 20u);
  ASSERT_NE(heap.Find(30), nullptr);
  EXPECT_EQ(heap.Find(30)->value, 3.0f);
}

TEST(IndexedMinHeapTest, UpdateMovesEntries) {
  IndexedMinHeap heap;
  heap.Set(1, 1.0, 0.0f);
  heap.Set(2, 2.0, 0.0f);
  heap.Set(3, 3.0, 0.0f);
  heap.Set(1, 10.0, 0.0f);  // demote the old min
  EXPECT_EQ(heap.Min().key, 2u);
  heap.Set(3, 0.5, 0.0f);  // promote
  EXPECT_EQ(heap.Min().key, 3u);
}

TEST(IndexedMinHeapTest, RemoveArbitrary) {
  IndexedMinHeap heap;
  for (uint32_t k = 0; k < 10; ++k) heap.Set(k, static_cast<double>(k), 0.0f);
  const IndexedMinHeap::Entry removed = heap.Remove(5);
  EXPECT_EQ(removed.key, 5u);
  EXPECT_FALSE(heap.Contains(5));
  EXPECT_EQ(heap.size(), 9u);
  EXPECT_EQ(heap.Min().key, 0u);
}

TEST(IndexedMinHeapTest, RemoveLastSlotEntry) {
  IndexedMinHeap heap;
  heap.Set(1, 1.0, 0.0f);
  heap.Set(2, 2.0, 0.0f);
  heap.Remove(2);  // tail position — exercises the no-swap path
  EXPECT_EQ(heap.size(), 1u);
  EXPECT_EQ(heap.Min().key, 1u);
}

TEST(IndexedMinHeapTest, PopMinDrainsInPriorityOrder) {
  IndexedMinHeap heap;
  Rng rng(99);
  for (uint32_t k = 0; k < 200; ++k) heap.Set(k, rng.NextDouble(), 0.0f);
  double prev = -1.0;
  while (!heap.empty()) {
    const IndexedMinHeap::Entry e = heap.PopMin();
    EXPECT_GE(e.priority, prev);
    prev = e.priority;
  }
}

// Property: against a reference std::multimap model under a random operation
// mix, the heap min always matches.
TEST(IndexedMinHeapTest, RandomOpsAgainstReferenceModel) {
  IndexedMinHeap heap;
  std::map<uint32_t, double> model;  // key -> priority
  Rng rng(7);
  for (int step = 0; step < 20000; ++step) {
    const uint32_t key = static_cast<uint32_t>(rng.Bounded(64));
    const double op = rng.NextDouble();
    if (op < 0.5) {
      const double pri = rng.NextDouble();
      heap.Set(key, pri, 0.0f);
      model[key] = pri;
    } else if (op < 0.7 && !model.empty() && model.count(key)) {
      heap.Remove(key);
      model.erase(key);
    } else if (!model.empty()) {
      auto min_it = std::min_element(
          model.begin(), model.end(),
          [](const auto& a, const auto& b) { return a.second < b.second; });
      EXPECT_EQ(heap.Min().priority, min_it->second);
    }
    ASSERT_EQ(heap.size(), model.size());
  }
}

// -------------------------------------------------- FlatIndex (differential)

TEST(FlatIndexTest, RandomOpsMatchUnorderedMap) {
  // A small key universe (with both extreme keys) keeps probe clusters long
  // and makes every erase shift something.
  FlatIndex index;
  std::unordered_map<uint32_t, uint32_t> model;
  Rng rng(11);
  std::vector<uint32_t> universe = {0u, 0xFFFFFFFFu};
  for (int i = 0; i < 200; ++i) universe.push_back(rng.NextU32());
  for (int step = 0; step < 50000; ++step) {
    const uint32_t key = universe[rng.Bounded(universe.size())];
    if (rng.NextDouble() < 0.6) {
      const uint32_t value = static_cast<uint32_t>(rng.Bounded(1000));
      index[key] = value;
      model[key] = value;
    } else if (model.count(key)) {
      EXPECT_EQ(index.Erase(key), model[key]);
      model.erase(key);
    }
    ASSERT_EQ(index.size(), model.size());
    ASSERT_LE(index.size(), index.capacity());  // load factor ≤ ½
  }
  for (const uint32_t key : universe) {
    const uint32_t* v = index.Find(key);
    ASSERT_EQ(v != nullptr, model.count(key) == 1) << key;
    if (v != nullptr) {
      EXPECT_EQ(*v, model[key]);
    }
  }
}

// ------------------------------------------- IndexedMinHeap (differential)

// The heap as it was before its index became a FlatIndex: positions in a
// node-based std::unordered_map, sifted by swaps. The differential tests
// below hold the flat-indexed heap to this reference's exact array order,
// which is what eviction tie-breaking and snapshot bytes depend on.
class ReferenceHeap {
 public:
  using Entry = IndexedMinHeap::Entry;

  size_t size() const { return heap_.size(); }
  bool Contains(uint32_t key) const { return pos_.count(key) == 1; }
  const Entry* Find(uint32_t key) const {
    auto it = pos_.find(key);
    return it == pos_.end() ? nullptr : &heap_[it->second];
  }
  void Insert(uint32_t key, double priority, float value) {
    heap_.push_back(Entry{key, priority, value});
    pos_[key] = heap_.size() - 1;
    SiftUp(heap_.size() - 1);
  }
  void Update(uint32_t key, double priority, float value) {
    const size_t i = pos_.at(key);
    heap_[i].priority = priority;
    heap_[i].value = value;
    if (!SiftUp(i)) SiftDown(i);
  }
  Entry Remove(uint32_t key) {
    const size_t i = pos_.at(key);
    const Entry removed = heap_[i];
    const size_t last = heap_.size() - 1;
    if (i != last) {
      heap_[i] = heap_[last];
      pos_[heap_[i].key] = i;
      heap_.pop_back();
      pos_.erase(removed.key);
      if (!SiftUp(i)) SiftDown(i);
    } else {
      heap_.pop_back();
      pos_.erase(removed.key);
    }
    return removed;
  }
  const Entry& Min() const { return heap_[0]; }
  Entry PopMin() { return Remove(heap_[0].key); }
  const std::vector<Entry>& entries() const { return heap_; }
  Status RestoreHeapOrder(std::vector<Entry> entries) {
    std::unordered_map<uint32_t, size_t> pos;
    for (size_t i = 0; i < entries.size(); ++i) {
      if (!pos.emplace(entries[i].key, i).second) {
        return Status::InvalidArgument("duplicate heap key");
      }
      if (i > 0 && entries[(i - 1) / 2].priority > entries[i].priority) {
        return Status::InvalidArgument("entries violate the heap property");
      }
    }
    heap_ = std::move(entries);
    pos_ = std::move(pos);
    return Status::OK();
  }
  void Clear() {
    heap_.clear();
    pos_.clear();
  }

 private:
  bool SiftUp(size_t i) {
    bool moved = false;
    while (i > 0) {
      const size_t parent = (i - 1) / 2;
      if (heap_[parent].priority <= heap_[i].priority) break;
      Swap(i, parent);
      i = parent;
      moved = true;
    }
    return moved;
  }
  void SiftDown(size_t i) {
    const size_t n = heap_.size();
    while (true) {
      const size_t l = 2 * i + 1;
      const size_t r = 2 * i + 2;
      size_t smallest = i;
      if (l < n && heap_[l].priority < heap_[smallest].priority) smallest = l;
      if (r < n && heap_[r].priority < heap_[smallest].priority) smallest = r;
      if (smallest == i) break;
      Swap(i, smallest);
      i = smallest;
    }
  }
  void Swap(size_t a, size_t b) {
    std::swap(heap_[a], heap_[b]);
    pos_[heap_[a].key] = a;
    pos_[heap_[b].key] = b;
  }

  std::vector<Entry> heap_;
  std::unordered_map<uint32_t, size_t> pos_;
};

bool SameEntry(const IndexedMinHeap::Entry& a, const IndexedMinHeap::Entry& b) {
  return a.key == b.key &&
         std::bit_cast<uint64_t>(a.priority) == std::bit_cast<uint64_t>(b.priority) &&
         std::bit_cast<uint32_t>(a.value) == std::bit_cast<uint32_t>(b.value);
}

// Asserts identical array order, Min(), and Find()/Contains() (down to the
// array slot) for every key in `probe`.
void ExpectSameHeap(const IndexedMinHeap& heap, const ReferenceHeap& ref,
                    const std::vector<uint32_t>& probe) {
  ASSERT_EQ(heap.size(), ref.size());
  for (size_t i = 0; i < ref.size(); ++i) {
    ASSERT_TRUE(SameEntry(heap.entries()[i], ref.entries()[i])) << "array slot " << i;
  }
  if (ref.size() > 0) {
    ASSERT_TRUE(SameEntry(heap.Min(), ref.Min()));
  }
  for (const uint32_t key : probe) {
    ASSERT_EQ(heap.Contains(key), ref.Contains(key)) << key;
    const IndexedMinHeap::Entry* got = heap.Find(key);
    const IndexedMinHeap::Entry* want = ref.Find(key);
    ASSERT_EQ(got == nullptr, want == nullptr) << key;
    if (want != nullptr) {
      ASSERT_EQ(got - heap.entries().data(), want - ref.entries().data()) << key;
    }
  }
}

// Drives both heaps through the same random Set (insert or update) / Modify
// / Remove / PopMin / Clear / RestoreHeapOrder sequence over `keys`,
// checking after every step. Priorities come from a small set (plus the odd NaN), so
// ties — and with them the order-sensitive sift paths — are common.
void RunDifferential(IndexedMinHeap& heap, const std::vector<uint32_t>& keys, int steps,
                     uint64_t seed) {
  ReferenceHeap ref;
  Rng rng(seed);
  auto priority = [&rng]() {
    if (rng.Bounded(200) == 0) return std::numeric_limits<double>::quiet_NaN();
    return static_cast<double>(rng.Bounded(12)) * 0.25;
  };
  for (int step = 0; step < steps; ++step) {
    const uint32_t key = keys[rng.Bounded(keys.size())];
    const float value = static_cast<float>(rng.Bounded(100));
    const uint64_t op = rng.Bounded(100);
    if (op < 40) {
      const double p = priority();
      heap.Set(key, p, value);
      if (ref.Contains(key)) {
        ref.Update(key, p, value);
      } else {
        ref.Insert(key, p, value);
      }
    } else if (op < 50) {
      const double p = priority();
      const bool present = heap.Modify(key, [&](IndexedMinHeap::Entry& e) {
        e.priority = p;
        e.value += value;
      });
      ASSERT_EQ(present, ref.Contains(key));
      if (present) ref.Update(key, p, ref.Find(key)->value + value);
    } else if (op < 65 && ref.size() > 0) {
      const uint32_t victim = ref.entries()[rng.Bounded(ref.size())].key;
      ASSERT_TRUE(SameEntry(heap.Remove(victim), ref.Remove(victim)));
    } else if (op < 75 && ref.size() > 0) {
      ASSERT_TRUE(SameEntry(heap.PopMin(), ref.PopMin()));
    } else if (op < 76) {
      heap.Clear();
      ref.Clear();
    } else if (op < 80) {
      // A sorted array is heap-ordered; a repeated key must be rejected
      // without touching either heap.
      std::vector<IndexedMinHeap::Entry> restored = ref.entries();
      std::sort(restored.begin(), restored.end(),
                [](const auto& a, const auto& b) { return a.priority < b.priority; });
      if (restored.size() > 1 && rng.Bounded(2) == 0) restored.push_back(restored.front());
      ASSERT_EQ(heap.RestoreHeapOrder(restored).ok(), ref.RestoreHeapOrder(restored).ok());
    }
    ExpectSameHeap(heap, ref, keys);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(IndexedMinHeapDifferentialTest, RandomKeysIncludingExtremes) {
  Rng rng(21);
  std::vector<uint32_t> keys = {0u, 0xFFFFFFFFu, 1u, 0xFFFFFFFEu};
  for (int i = 0; i < 60; ++i) keys.push_back(rng.NextU32());
  IndexedMinHeap heap;
  RunDifferential(heap, keys, 30000, 1);
}

// Keys built to share home slots of a 32-slot table (capacity 16 never
// rehashes): one cluster homed at the last slot, so its probe chain and
// every backward shift out of it wrap past the end of the table, and a
// second cluster homed at slot 0 that the wrapped chain runs into.
TEST(IndexedMinHeapDifferentialTest, CollidingKeysAndWrappingChains) {
  constexpr size_t kCapacity = 16;
  const FlatIndex layout(kCapacity);
  const size_t last = 2 * layout.capacity() - 1;
  std::vector<uint32_t> keys;
  size_t at_last = 0, at_zero = 0;
  for (uint32_t k = 0; at_last < 6 || at_zero < 5; ++k) {
    const size_t home = layout.HomeSlot(k);
    if (home == last && at_last < 6) {
      keys.push_back(k);
      ++at_last;
    } else if (home == 0 && at_zero < 5) {
      keys.push_back(k);
      ++at_zero;
    }
  }
  ASSERT_EQ(keys.size(), 11u);
  // With all 11 present the cluster fills slots last, 0, 1, ... 9.
  IndexedMinHeap heap(kCapacity);
  RunDifferential(heap, keys, 30000, 2);

  // The same keys through a heap that starts empty and grows.
  IndexedMinHeap growing;
  RunDifferential(growing, keys, 5000, 3);
}

TEST(IndexedMinHeapDifferentialTest, GrowsFromEmptyThrough4096Entries) {
  IndexedMinHeap heap;
  ReferenceHeap ref;
  Rng rng(31);
  std::vector<uint32_t> keys = {0u, 0xFFFFFFFFu};
  while (keys.size() < 4096) keys.push_back(rng.NextU32());
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  while (keys.size() < 4096) keys.push_back(static_cast<uint32_t>(keys.size()));
  std::vector<uint32_t> probe;
  for (const uint32_t key : keys) {
    const double p = static_cast<double>(rng.Bounded(64));
    heap.Set(key, p, static_cast<float>(key & 0xff));
    ref.Insert(key, p, static_cast<float>(key & 0xff));
    probe.assign({key, keys[rng.Bounded(keys.size())]});
    ExpectSameHeap(heap, ref, probe);
    if (HasFatalFailure()) return;
  }
  ExpectSameHeap(heap, ref, keys);
  while (ref.size() > 0) {
    ASSERT_TRUE(SameEntry(heap.PopMin(), ref.PopMin()));
    if (ref.size() % 512 == 0) ExpectSameHeap(heap, ref, keys);
  }
}

TEST(IndexedMinHeapDifferentialTest, RestoreRejectsDuplicatesAndKeepsState) {
  IndexedMinHeap heap(8);
  heap.Set(5, 1.0, 0.0f);
  heap.Set(0xFFFFFFFFu, 2.0, 0.0f);
  const std::vector<IndexedMinHeap::Entry> dup = {{0, 1.0, 0.0f}, {7, 2.0, 0.0f}, {0, 3.0, 0.0f}};
  EXPECT_EQ(heap.RestoreHeapOrder(dup).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(heap.size(), 2u);
  EXPECT_TRUE(heap.Contains(5));
  EXPECT_TRUE(heap.Contains(0xFFFFFFFFu));
  EXPECT_FALSE(heap.Contains(0));
  EXPECT_FALSE(heap.Contains(7));
}

// A read snapshot's copy of the active set reports what it holds: one entry
// per member and the index's slot array (2 slots per key of capacity,
// rounded up to a power of two), not a per-entry estimate.
TEST(IndexedMinHeapTest, ResidentBytesCountEntriesAndIndexSlots) {
  IndexedMinHeap heap(100);
  for (uint32_t k = 0; k < 100; ++k) heap.Set(k * 7919, static_cast<double>(k), 0.0f);
  const IndexedMinHeap copy = heap;
  EXPECT_EQ(copy.ResidentBytes(), 100 * sizeof(IndexedMinHeap::Entry) + 256 * 2 * sizeof(uint32_t));
}

// --------------------------------------------------------------- TopKHeap

TEST(TopKHeapTest, OfferBelowCapacityAlwaysAdmits) {
  TopKHeap heap(3);
  EXPECT_FALSE(heap.Offer(1, 0.1f).has_value());
  EXPECT_FALSE(heap.Offer(2, -0.2f).has_value());
  EXPECT_FALSE(heap.Offer(3, 0.05f).has_value());
  EXPECT_TRUE(heap.full());
}

TEST(TopKHeapTest, OfferEvictsSmallestMagnitude) {
  TopKHeap heap(2);
  heap.Offer(1, 1.0f);
  heap.Offer(2, -3.0f);
  auto evicted = heap.Offer(3, 2.0f);  // beats |1.0|
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->feature, 1u);
  EXPECT_EQ(evicted->weight, 1.0f);
  EXPECT_FALSE(heap.Contains(1));
  EXPECT_TRUE(heap.Contains(3));
}

TEST(TopKHeapTest, OfferRejectsSmallerMagnitude) {
  TopKHeap heap(2);
  heap.Offer(1, 1.0f);
  heap.Offer(2, -3.0f);
  EXPECT_FALSE(heap.Offer(3, 0.5f).has_value());
  EXPECT_FALSE(heap.Contains(3));
}

TEST(TopKHeapTest, OfferRefreshesTrackedFeature) {
  TopKHeap heap(2);
  heap.Offer(1, 1.0f);
  heap.Offer(1, -5.0f);  // same feature, new estimate
  EXPECT_EQ(heap.size(), 1u);
  EXPECT_EQ(heap.Get(1).value(), -5.0f);
}

TEST(TopKHeapTest, MagnitudeOrderingIsSignAgnostic) {
  TopKHeap heap(3);
  heap.Offer(1, -10.0f);
  heap.Offer(2, 5.0f);
  heap.Offer(3, -1.0f);
  EXPECT_EQ(heap.Min().feature, 3u);
  const auto top = heap.TopK(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].feature, 1u);
  EXPECT_EQ(top[1].feature, 2u);
}

TEST(TopKHeapTest, ScalePreservesOrderAndValues) {
  TopKHeap heap(4);
  heap.Offer(1, 4.0f);
  heap.Offer(2, -2.0f);
  heap.Offer(3, 1.0f);
  heap.Scale(0.5f);
  EXPECT_EQ(heap.Get(1).value(), 2.0f);
  EXPECT_EQ(heap.Get(2).value(), -1.0f);
  EXPECT_EQ(heap.Min().feature, 3u);
}

TEST(TopKHeapTest, AddShiftsWeight) {
  TopKHeap heap(2);
  heap.Set(7, 1.0f);
  heap.Add(7, -3.0f);
  EXPECT_EQ(heap.Get(7).value(), -2.0f);
}

TEST(TopKHeapTest, CapacityOne) {
  TopKHeap heap(1);
  heap.Offer(1, 1.0f);
  auto evicted = heap.Offer(2, 2.0f);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->feature, 1u);
  EXPECT_EQ(heap.TopK(5).size(), 1u);
}

TEST(TopKHeapTest, TopKSortedWithDeterministicTies) {
  TopKHeap heap(4);
  heap.Offer(9, 1.0f);
  heap.Offer(3, -1.0f);
  heap.Offer(5, 2.0f);
  const auto top = heap.TopK(3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].feature, 5u);
  EXPECT_EQ(top[1].feature, 3u);  // tie |1.0| broken by ascending id
  EXPECT_EQ(top[2].feature, 9u);
}

// Property: offered a long random stream, the heap retains exactly the K
// largest-magnitude final values of distinct keys seen... since Offer keyed
// re-offers replace values, emulate with distinct keys only.
TEST(TopKHeapTest, RetainsLargestOfDistinctStream) {
  const size_t k = 16;
  TopKHeap heap(k);
  Rng rng(5);
  std::vector<FeatureWeight> all;
  for (uint32_t f = 0; f < 500; ++f) {
    const float w = static_cast<float>(rng.NextGaussian());
    all.push_back({f, w});
    heap.Offer(f, w);
  }
  SortByMagnitudeAndTruncate(all, k);
  const auto got = heap.TopK(k);
  ASSERT_EQ(got.size(), k);
  for (size_t i = 0; i < k; ++i) {
    EXPECT_EQ(got[i].feature, all[i].feature) << i;
    EXPECT_EQ(got[i].weight, all[i].weight) << i;
  }
}

}  // namespace
}  // namespace wmsketch
