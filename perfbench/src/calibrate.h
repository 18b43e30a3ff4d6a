#pragma once
// Host speed calibration: how fast this machine runs fixed CPU work right
// now.
//
// On a shared virtual machine the CPU time a piece of work takes drifts by
// tens of percent between runs minutes apart (other tenants on the sibling
// hyperthread and in the shared caches), and steal accounting does not
// remove that. The calibration kernel is the benchmark's own fixed code,
// not the program's, so it does not change when the program does; a
// program figure scaled by the kernel's CPU time measured in the same run
// cancels most of the host's drift.

#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

/// The kernel's CPU time (s) at the host speed normalized figures refer to.
inline constexpr double kCalibrationReferenceS = 0.025;

/// Runs the calibration kernel once on each of `cpus` at the same time, one
/// pinned thread each, and returns the mean CPU time (s) it took.
double CalibrationCpuSeconds(const std::vector<int>& cpus);

/// Samples the calibration now and then over a run.
class HostSpeed {
 public:
  explicit HostSpeed(std::vector<int> cpus) : cpus_(std::move(cpus)) {}

  /// Takes a sample when none was taken in the last kEverySeconds.
  void MaybeSample();
  /// Median sampled CPU time over kCalibrationReferenceS: above 1 when the
  /// host ran slower than the reference. Multiplying a throughput by it
  /// (or dividing a cost) gives the figure at reference speed.
  double Factor() const;
  const std::vector<double>& samples() const { return samples_; }

 private:
  static constexpr double kEverySeconds = 0.25;
  void Sample();
  std::vector<int> cpus_;
  std::vector<double> samples_;
  int64_t last_ns_ = 0;
};

}  // namespace perfbench
