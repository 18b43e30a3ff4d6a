#include "stats.h"

#include <algorithm>
#include <cmath>
#include <random>
#include <utility>

namespace perfbench {

double SupportedPercentile(size_t n, double wanted, size_t min_tail) {
  if (n <= min_tail) return 50.0;
  const double limit =
      100.0 * static_cast<double>(n - min_tail) / static_cast<double>(n);
  return std::max(50.0, std::min(wanted, limit));
}

double PercentileOf(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  // A small epsilon keeps q·n/100 that is mathematically whole from rounding
  // up past it in floating point.
  size_t rank = static_cast<size_t>(std::ceil(q * n / 100.0 - 1e-9));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

Tail Summarize(std::vector<double> samples, double wanted) {
  Tail t;
  t.n = samples.size();
  t.tail_q = SupportedPercentile(t.n, wanted);
  t.p50 = PercentileOf(samples, 50.0);
  t.tail = PercentileOf(samples, t.tail_q);
  return t;
}

Tail WindowedTail(const std::vector<double>& samples, double wanted, size_t window) {
  const size_t windows = window == 0 ? 1 : std::max<size_t>(1, samples.size() / window);
  if (windows == 1) return Summarize(samples, wanted);
  Tail t;
  t.n = samples.size();
  t.windows = windows;
  t.tail_q = SupportedPercentile(window, wanted);
  std::vector<double> medians, tails;
  for (size_t w = 0; w < windows; ++w) {
    const auto begin = samples.begin() + static_cast<std::ptrdiff_t>(w * window);
    const auto end = w + 1 == windows ? samples.end() : begin + static_cast<std::ptrdiff_t>(window);
    std::vector<double> part(begin, end);
    medians.push_back(PercentileOf(part, 50.0));
    tails.push_back(PercentileOf(part, t.tail_q));
  }
  t.p50 = PercentileOf(medians, 25.0);
  t.tail = PercentileOf(tails, 25.0);
  return t;
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t m = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[m] : 0.5 * (samples[m - 1] + samples[m]);
}

std::vector<int64_t> PoissonSchedule(int64_t start_ns, double rate_per_s, int64_t duration_ns,
                                     uint64_t seed) {
  std::vector<int64_t> due;
  due.reserve(static_cast<size_t>(rate_per_s * static_cast<double>(duration_ns) * 1e-9 * 1.1) + 16);
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(rate_per_s);
  double t = 0.0;
  while (true) {
    t += gap(rng) * 1e9;
    if (t >= static_cast<double>(duration_ns)) break;
    due.push_back(start_ns + static_cast<int64_t>(t));
  }
  return due;
}

OpenLoopLedger::OpenLoopLedger(std::vector<int64_t> due_ns)
    : due_(std::move(due_ns)), sent_(due_.size(), -1), done_(due_.size(), -1) {}

void OpenLoopLedger::Sent(size_t i, int64_t now_ns) { sent_[i] = now_ns; }

void OpenLoopLedger::Completed(size_t i, int64_t now_ns) {
  if (done_[i] < 0) ++completed_;
  done_[i] = now_ns;
}

std::vector<double> OpenLoopLedger::LatenciesUs() const {
  std::vector<double> out;
  out.reserve(completed_);
  for (size_t i = 0; i < due_.size(); ++i) {
    if (done_[i] >= 0) out.push_back(static_cast<double>(done_[i] - due_[i]) * 1e-3);
  }
  return out;
}

std::vector<double> OpenLoopLedger::ServiceUs() const {
  std::vector<double> out;
  out.reserve(completed_);
  for (size_t i = 0; i < due_.size(); ++i) {
    if (done_[i] >= 0 && sent_[i] >= 0) {
      out.push_back(static_cast<double>(done_[i] - sent_[i]) * 1e-3);
    }
  }
  return out;
}

std::vector<double> OpenLoopLedger::LagUs() const {
  std::vector<double> out;
  out.reserve(due_.size());
  for (size_t i = 0; i < due_.size(); ++i) {
    if (sent_[i] >= 0) out.push_back(static_cast<double>(sent_[i] - due_[i]) * 1e-3);
  }
  return out;
}

}  // namespace perfbench
