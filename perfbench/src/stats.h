#pragma once
// Sample statistics and open-loop accounting shared by the workloads.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Samples that must lie beyond a reported tail percentile.
inline constexpr size_t kMinTailSamples = 10;

/// The highest percentile (0..100) no greater than `wanted` that has at
/// least `min_tail` of `n` samples strictly beyond it under the nearest-rank
/// rule: the value at rank r = ceil(q·n/100) leaves n − r samples above it,
/// so q may be at most 100·(n − min_tail)/n. Returns 50 (the median) when
/// even that leaves fewer than `min_tail` samples beyond it.
double SupportedPercentile(size_t n, double wanted, size_t min_tail = kMinTailSamples);

/// Nearest-rank percentile of `samples` (sorted in place); 0 when empty.
double PercentileOf(std::vector<double>& samples, double q);

/// A latency summary: median, the tail percentile the sample supports (at
/// most `wanted`), which percentile that was, and the sample count.
struct Tail {
  double p50 = 0.0;
  double tail = 0.0;
  double tail_q = 0.0;
  size_t n = 0;
  /// Windows p50 and the tail are the lower quartile over (1: the whole
  /// sample).
  size_t windows = 1;
};
Tail Summarize(std::vector<double> samples, double wanted);

/// Samples per window for WindowedTail at p99 and p90: the fewest that
/// support the percentile with kMinTailSamples beyond it.
inline constexpr size_t kWindowP99 = 1000;
inline constexpr size_t kWindowP90 = 100;

/// A companion summary that host preemption moves less, printed beside the
/// plain percentiles the metrics report: `samples` (in arrival order) are
/// cut into consecutive windows of `window` samples (the last one absorbs
/// any remainder); each window's median and supported tail percentile are
/// taken, and the lower quartile over windows of each is reported. A stall
/// of the virtual CPU (milliseconds, several times a second on a shared
/// host) inflates the windows it lands in; load the program cannot carry
/// inflates every window. It is not the sample's percentile: stalls in
/// fewer than three quarters of the windows, the program's own included,
/// do not show in it. With fewer than 2·window samples this is Summarize.
Tail WindowedTail(const std::vector<double>& samples, double wanted, size_t window);

/// Median of a sample (0 when empty).
double Median(std::vector<double> samples);

/// An open-loop arrival schedule: request i is due at due_ns[i], whether or
/// not earlier requests have completed.
std::vector<int64_t> PoissonSchedule(int64_t start_ns, double rate_per_s, int64_t duration_ns,
                                     uint64_t seed);

/// Per-request open-loop timing. Latency runs from the request's *due* time,
/// not from when it was sent, so a stall that delays sending charges its
/// wait to every request that fell due during it; lateness is how long after
/// its due time the generator got to a request.
class OpenLoopLedger {
 public:
  explicit OpenLoopLedger(std::vector<int64_t> due_ns);

  size_t size() const { return due_.size(); }
  int64_t due(size_t i) const { return due_[i]; }
  void Sent(size_t i, int64_t now_ns);
  void Completed(size_t i, int64_t now_ns);

  /// Due-to-completion latencies (µs) of completed requests.
  std::vector<double> LatenciesUs() const;
  /// Sent-to-completion latencies (µs): what a closed-loop timer would see.
  std::vector<double> ServiceUs() const;
  /// Due-to-sent lateness (µs) of sent requests.
  std::vector<double> LagUs() const;

 private:
  std::vector<int64_t> due_;
  std::vector<int64_t> sent_;
  std::vector<int64_t> done_;
  size_t completed_ = 0;
};

}  // namespace perfbench
