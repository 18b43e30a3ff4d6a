#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <utility>

namespace perfbench::trace {
namespace {

std::atomic<bool> g_enabled{false};

struct Buffer {
  std::vector<Span> spans;
  int64_t wall_ns = 0;
  std::vector<int32_t> open;  // indices of this thread's open spans
};

// Buffers are shared with the registry so spans outlive their thread.
std::mutex g_registry_mu;
std::vector<std::shared_ptr<Buffer>>& Registry() {
  static std::vector<std::shared_ptr<Buffer>> registry;
  return registry;
}

Buffer& ThisThread() {
  thread_local std::shared_ptr<Buffer> buffer = [] {
    auto b = std::make_shared<Buffer>();
    std::lock_guard<std::mutex> lock(g_registry_mu);
    Registry().push_back(b);
    return b;
  }();
  return *buffer;
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }
void SetEnabled(bool enabled) { g_enabled.store(enabled, std::memory_order_relaxed); }

Scope::Scope(const char* layer, uint64_t id) {
  if (!Enabled()) return;
  Buffer& b = ThisThread();
  index_ = static_cast<int32_t>(b.spans.size());
  Span s;
  s.layer = layer;
  s.id = id;
  s.parent = b.open.empty() ? -1 : b.open.back();
  b.spans.push_back(s);
  b.open.push_back(index_);
  b.spans.back().start_ns = NowNs();
}

Scope::~Scope() {
  if (index_ < 0) return;
  const int64_t end = NowNs();
  Buffer& b = ThisThread();
  b.spans[static_cast<size_t>(index_)].end_ns = end;
  b.open.pop_back();
}

Root::Wall::Wall() {
  if (!Enabled()) return;
  ThisThread();  // registers the thread's buffer outside the clocked interval
  start_ns = NowNs();
}

Root::Wall::~Wall() {
  if (start_ns >= 0) ThisThread().wall_ns += NowNs() - start_ns;
}

void Record(const char* layer, int64_t start_ns, int64_t end_ns, uint64_t id) {
  if (!Enabled()) return;
  Buffer& b = ThisThread();
  Span s;
  s.layer = layer;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.id = id;
  s.parent = b.open.empty() ? -1 : b.open.back();
  b.spans.push_back(s);
}

Trace Drain() {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  Trace out;
  for (const std::shared_ptr<Buffer>& b : Registry()) {
    out.wall_s += static_cast<double>(b->wall_ns) * 1e-9;
    b->wall_ns = 0;
    if (b->spans.empty()) continue;
    out.threads.push_back(std::move(b->spans));
    b->spans.clear();
  }
  return out;
}

LayerTotals SelfTimes(const std::vector<std::vector<Span>>& threads) {
  LayerTotals totals;
  for (const std::vector<Span>& spans : threads) {
    std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
    for (const Span& s : spans) {
      if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
        children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const int64_t duration = s.end_ns - s.start_ns;
      // Union of the children's intervals, clipped to this span.
      std::vector<std::pair<int64_t, int64_t>>& kids = children[i];
      std::sort(kids.begin(), kids.end());
      int64_t covered = 0;
      int64_t reach = s.start_ns;
      for (const auto& [lo, hi] : kids) {
        const int64_t a = std::max(lo, reach);
        const int64_t b = std::min(hi, s.end_ns);
        if (b > a) covered += b - a;
        reach = std::max(reach, std::min(hi, s.end_ns));
      }
      totals.self_s[s.layer] += static_cast<double>(duration - covered) * 1e-9;
      totals.count[s.layer] += 1;
      if (s.parent < 0) totals.root_s += static_cast<double>(duration) * 1e-9;
    }
  }
  return totals;
}

std::vector<double> DurationsUs(const std::vector<std::vector<Span>>& threads,
                                const std::string& layer) {
  std::vector<double> out;
  for (const std::vector<Span>& spans : threads) {
    for (const Span& s : spans) {
      if (layer == s.layer) out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    }
  }
  return out;
}

bool WriteTsv(const std::vector<std::vector<Span>>& threads, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "thread\tlayer\tstart_ns\tend_ns\tid\tparent\n");
  for (size_t t = 0; t < threads.size(); ++t) {
    for (const Span& s : threads[t]) {
      std::fprintf(f, "%zu\t%s\t%lld\t%lld\t%llu\t%d\n", t, s.layer,
                   static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
                   static_cast<unsigned long long>(s.id), s.parent);
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench::trace
