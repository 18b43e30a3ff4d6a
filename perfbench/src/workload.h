#pragma once
// Shared workload plumbing: run configuration, the result a workload hands
// back to main(), the RCV1-profile stream every workload is built from, and
// the dense reference model behind topk_rel_err.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "api/learner.h"
#include "calibrate.h"
#include "stats.h"
#include "stream/sparse_vector.h"
#include "trace.h"
#include "util/status.h"
#include "util/top_k_heap.h"

namespace perfbench {

struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Repository root (holds bench/profiles/ and src/).
  std::string root;
  /// Scratch directory inside the checkout (sockets, span dumps).
  std::string work_dir;
};

/// What a workload reports. main() refuses a run that left an end-to-end
/// metric unset; per-layer metrics a workload does not set read 0.
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Names of the correctness checks that failed.
  std::vector<std::string> mismatches;
  std::map<std::string, double> metrics;
  /// Human-readable context lines (sample counts, percentiles used).
  std::vector<std::string> notes;

  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      mismatches.push_back(what);
    }
  }
};

/// Set-up is repeated this many times per run and its median reported, so
/// setup_s is a median, not one sample.
inline constexpr int kSetupReps = 3;

/// Examples in the shared stream (one job's input).
inline constexpr size_t kStreamExamples = 32768;
/// RelErr@K of the recovered top-K against the dense reference.
inline constexpr size_t kRelErrK = 128;

/// The workload input: RCV1-profile examples drawn by SparsityReplayGen,
/// formatted as libsvm text, and that text parsed once. The parsed examples
/// are the canonical stream; the text is what the ingest workload re-parses.
struct Stream {
  std::vector<std::string> lines;
  std::vector<wmsketch::Example> parsed;
  uint32_t dimension = 0;
};
/// Every line is checked to parse back to the example it was formatted
/// from (SameExample); a line that does not makes MakeStream fail.
wmsketch::Result<Stream> MakeStream(const std::string& root, uint64_t seed, size_t examples,
                                    bool keep_lines);

/// Relative precision of a feature value written by FormatLibsvmLine (six
/// significant digits).
inline constexpr double kTextPrecision = 1e-5;

/// True when `parsed` has the label and feature indices of `drawn` and
/// values equal to within kTextPrecision.
bool SameExample(const wmsketch::Example& parsed, const wmsketch::Example& drawn);

/// The paper's learner settings (λ = 1e-6, η = 0.1/√t) with a fixed hashing
/// seed; the stream, not the model, varies with --seed.
wmsketch::LearnerBuilder PaperBuilder();

/// Dense (uncompressed) logistic regression trained on stream[i mod n] for
/// i in [0, count): the w* of RelErr.
std::vector<float> DenseReference(const std::vector<wmsketch::Example>& stream, size_t count,
                                  uint32_t dimension);

double RelErr(const std::vector<wmsketch::FeatureWeight>& topk, const std::vector<float>& w_star);

/// True when both lists hold the same features with bit-identical weights.
bool SameTopK(const std::vector<wmsketch::FeatureWeight>& a,
              const std::vector<wmsketch::FeatureWeight>& b);

/// Jobs a run makes at least, however short --seconds is.
inline constexpr int kMinJobs = 3;

/// Runs `job` repeatedly until `seconds` have passed, at least kMinJobs
/// times, sampling `host` between jobs.
void Repeat(double seconds, HostSpeed* host, const std::function<void(int rep)>& job);

/// ops_per_cpu_s: the median job's operations per CPU-second, scaled to
/// the calibration's reference host speed; the unscaled figure and the
/// calibration go into a note.
void ReportOpsPerCpu(const std::vector<double>& cpu_eps, const HostSpeed& host, RunResult* r);

/// The job workloads' throughput: examples per second of the fastest job
/// in the run. Interference from other tenants of a shared machine only
/// slows a job down, so the fastest job tracks the program's own speed;
/// every job of a slower program is slower.
double BestJob(const std::vector<double>& eps);

/// "jobs=…, examples/s median … best …; examples/cpu-s median … best …".
std::string DescribeJobs(const std::vector<double>& eps, const std::vector<double>& cpu_eps);

/// Summarize(samples, wanted), the plain percentiles a metric reports, and
/// a note in `r` naming them ("what: n=…, p50 …, p<q> …") followed by
/// WindowedTail's figures over windows of `window` as a companion that host
/// stalls move less.
Tail ReportTail(const std::string& what, const std::vector<double>& samples, double wanted,
                size_t window, RunResult* r);

/// Runs `setup` kSetupReps times and returns the median duration (s).
double TimedSetup(const std::function<void()>& setup);

/// Per-job layer numbers from the spans the traced repetitions recorded.
/// Constructing one drains the recorder.
class TraceReport {
 public:
  explicit TraceReport(int traced_reps);
  /// Self seconds of `layer`, per traced job.
  double Self(const char* layer) const;
  /// Spans of `layer`, per traced job.
  double Count(const char* layer) const;
  /// Durations (µs) of every span of `layer`.
  std::vector<double> DurationsUs(const char* layer) const;
  /// Sets trace.wall_s, trace.other_s, trace.reconcile_err and
  /// trace.overhead_frac, and writes the spans to `tsv_path`.
  void Finish(double overhead_frac, const std::string& tsv_path, RunResult* r) const;

 private:
  trace::Trace trace_;
  trace::LayerTotals totals_;
  double reps_ = 1.0;
};

RunResult RunIngest(const RunConfig& cfg);
RunResult RunIngestSharded(const RunConfig& cfg);
RunResult RunSync(const RunConfig& cfg);
RunResult RunServe(const RunConfig& cfg);

}  // namespace perfbench
