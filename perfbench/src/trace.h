#pragma once
// Span tracing for the benchmark's traced run.
//
// Spans are recorded in the benchmark's own code around each call into a
// layer's public functions (the library itself is not instrumented). Each
// thread appends to its own buffer, so recording takes no lock after the
// thread's first span; Drain() collects every buffer once the recording
// threads have been joined. When tracing is off, Scope and Record cost one
// load of a global flag.
//
// A layer's self time is its span's duration minus the part of that
// interval covered by its child spans (spans opened on the same thread
// while it was open). A thread's root span ("other") therefore holds the
// time the benchmark spent between layer calls, and the self times of one
// thread add up to its root span's duration.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench::trace {

/// Monotonic clock in nanoseconds (steady_clock).
int64_t NowNs();

bool Enabled();
void SetEnabled(bool enabled);

/// One recorded interval. `layer` is a string literal; `parent` indexes the
/// enclosing span in the same thread's buffer (-1 for a root).
struct Span {
  const char* layer = nullptr;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Request identifier shared by the spans of one request (0: none).
  uint64_t id = 0;
  int32_t parent = -1;
};

/// Opens a span on construction and closes it on destruction; spans opened
/// on this thread in between become its children.
class Scope {
 public:
  explicit Scope(const char* layer, uint64_t id = 0);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  int32_t index_ = -1;
};

/// A thread's root span, named "other": its self time is the time the
/// thread spent between layer calls. It also clocks the thread's wall time
/// itself, outside the span, so the traced run can check that the self
/// times of every span add back up to the wall time the threads were
/// active (the reconciliation identity).
class Root {
 public:
  Root() : scope_("other") {}

 private:
  // Declared before scope_: the wall clock starts before the span opens
  // and stops after it closes.
  struct Wall {
    Wall();
    ~Wall();
    Wall(const Wall&) = delete;
    Wall& operator=(const Wall&) = delete;
    int64_t start_ns = -1;
  };
  Wall wall_;
  Scope scope_;
};

/// Records an already-timed leaf span under this thread's open span. Used
/// where only some calls count (a nonblocking recv that moved no data is
/// idle polling, not work).
void Record(const char* layer, int64_t start_ns, int64_t end_ns, uint64_t id = 0);

/// Everything recorded since the last Drain: one span vector per thread,
/// and the wall time the Root scopes clocked, summed over threads.
struct Trace {
  std::vector<std::vector<Span>> threads;
  double wall_s = 0.0;
};

/// Moves every thread's spans out of the recorder. Call only after the
/// recording threads have been joined or are idle.
Trace Drain();

/// Per-layer totals over a set of thread buffers.
struct LayerTotals {
  std::map<std::string, double> self_s;
  std::map<std::string, uint64_t> count;
  /// Sum of root-span durations over all threads (seconds).
  double root_s = 0.0;
};

/// Self time per layer: each span's duration minus the union of its
/// children's intervals clipped to it, summed by layer name.
LayerTotals SelfTimes(const std::vector<std::vector<Span>>& threads);

/// Durations (microseconds) of every span of `layer`.
std::vector<double> DurationsUs(const std::vector<std::vector<Span>>& threads,
                                const std::string& layer);

/// Writes the spans as tab-separated rows (thread, layer, start_ns, end_ns,
/// id, parent). Returns false on I/O failure.
bool WriteTsv(const std::vector<std::vector<Span>>& threads, const std::string& path);

}  // namespace perfbench::trace
