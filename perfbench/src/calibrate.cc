#include "calibrate.h"

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <thread>

#include "machine.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

constexpr size_t kPairs = 4096;
constexpr size_t kRows = 3;
constexpr size_t kWidth = 1024;
constexpr int kRounds = 40;

/// Fixed "index:value" text, as libsvm lines write features.
const std::string& Text() {
  static const std::string text = [] {
    std::mt19937 rng(12345);
    std::string t;
    for (size_t i = 0; i < kPairs; ++i) {
      t += std::to_string(rng() % 47236 + 1) + ':' + std::to_string((rng() % 100000) * 1e-5) + ' ';
    }
    return t;
  }();
  return text;
}

/// One round in the shape of the training path: parse every pair, hash its
/// index into each row of a small table and update the cell (a sketch
/// update), then copy the table (a publish).
double Round(std::vector<float>& table, std::vector<float>& copy) {
  const char* p = Text().c_str();
  char* end = nullptr;
  for (size_t i = 0; i < kPairs; ++i) {
    const uint64_t index = std::strtoull(p, &end, 10);
    const float value = std::strtof(end + 1, &end);
    p = end + 1;
    for (size_t r = 0; r < kRows; ++r) {
      const uint64_t h = (index + 1) * (0x9E3779B97F4A7C15ull + 2 * r);
      float& cell = table[r * kWidth + (h >> 54)];
      cell = cell * 0.999f + ((h >> 53) & 1 ? value : -value);
    }
  }
  std::memcpy(copy.data(), table.data(), table.size() * sizeof(float));
  return copy[kWidth / 2];
}

}  // namespace

double CalibrationCpuSeconds(const std::vector<int>& cpus) {
  Text();  // built once, outside the timed part
  std::vector<double> cpu(cpus.size(), 0.0);
  {
    std::vector<std::jthread> threads;
    for (size_t i = 0; i < cpus.size(); ++i) {
      threads.emplace_back([&, i] {
        PinSelf(cpus[i]);
        std::vector<float> table(kRows * kWidth, 0.0f), copy(table.size());
        volatile double sink = 0.0;  // keeps the rounds from being optimized away
        const double c0 = ThreadCpuSeconds();
        for (int k = 0; k < kRounds; ++k) sink = sink + Round(table, copy);
        cpu[i] = ThreadCpuSeconds() - c0;
      });
    }
  }
  double sum = 0.0;
  for (const double c : cpu) sum += c;
  return cpus.empty() ? 0.0 : sum / static_cast<double>(cpus.size());
}

void HostSpeed::MaybeSample() {
  if (trace::NowNs() - last_ns_ >= static_cast<int64_t>(kEverySeconds * 1e9)) Sample();
}

void HostSpeed::Sample() {
  samples_.push_back(CalibrationCpuSeconds(cpus_));
  last_ns_ = trace::NowNs();
}

double HostSpeed::Factor() const {
  return samples_.empty() ? 1.0 : Median(samples_) / kCalibrationReferenceS;
}

}  // namespace perfbench
