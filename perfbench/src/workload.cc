#include "workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "datagen/sparsity_profile.h"
#include "linear/dense_linear_model.h"
#include "metrics/recovery.h"
#include "stats.h"
#include "stream/libsvm_io.h"
#include "trace.h"

namespace perfbench {

using wmsketch::Example;

wmsketch::Result<Stream> MakeStream(const std::string& root, uint64_t seed, size_t examples,
                                    bool keep_lines) {
  WMS_ASSIGN_OR_RETURN(const wmsketch::SparsityProfile profile,
                       wmsketch::LoadSparsityProfile(root + "/bench/profiles/rcv1_sparsity.json"));
  Stream s;
  s.dimension = profile.dimension;
  wmsketch::SparsityReplayGen gen(profile, seed);
  s.parsed.reserve(examples);
  if (keep_lines) s.lines.reserve(examples);
  for (size_t i = 0; i < examples; ++i) {
    const Example drawn = gen.Next();
    std::string line = wmsketch::FormatLibsvmLine(drawn);
    WMS_ASSIGN_OR_RETURN(Example ex, wmsketch::ParseLibsvmLine(line));
    if (!SameExample(ex, drawn)) {
      return wmsketch::Status::Corruption("stream: line " + std::to_string(i) +
                                          " does not parse back to the example it was formatted "
                                          "from: " +
                                          line);
    }
    s.parsed.push_back(std::move(ex));
    if (keep_lines) s.lines.push_back(std::move(line));
  }
  return s;
}

bool SameExample(const Example& parsed, const Example& drawn) {
  if (parsed.y != drawn.y || parsed.x.nnz() != drawn.x.nnz()) return false;
  for (size_t i = 0; i < drawn.x.nnz(); ++i) {
    const double want = drawn.x.value(i);
    if (parsed.x.index(i) != drawn.x.index(i) ||
        std::abs(parsed.x.value(i) - want) > kTextPrecision * std::abs(want)) {
      return false;
    }
  }
  return true;
}

wmsketch::LearnerBuilder PaperBuilder() {
  return wmsketch::LearnerBuilder()
      .SetLambda(1e-6)
      .SetLearningRate(wmsketch::LearningRate::InverseSqrt(0.1))
      .SetSeed(42);
}

std::vector<float> DenseReference(const std::vector<Example>& stream, size_t count,
                                  uint32_t dimension) {
  wmsketch::LearnerOptions opts;
  opts.lambda = 1e-6;
  opts.rate = wmsketch::LearningRate::InverseSqrt(0.1);
  opts.seed = 42;
  wmsketch::DenseLinearModel model(dimension, opts, kRelErrK);
  std::vector<double> margins;
  for (size_t done = 0; done < count;) {
    const size_t at = done % stream.size();
    const size_t n = std::min(count - done, stream.size() - at);
    margins.clear();
    model.UpdateBatch(std::span<const Example>(stream.data() + at, n), &margins);
    done += n;
  }
  return model.Weights();
}

double RelErr(const std::vector<wmsketch::FeatureWeight>& topk, const std::vector<float>& w_star) {
  return wmsketch::RelErrTopK(topk, w_star, kRelErrK);
}

bool SameTopK(const std::vector<wmsketch::FeatureWeight>& a,
              const std::vector<wmsketch::FeatureWeight>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].feature != b[i].feature ||
        std::memcmp(&a[i].weight, &b[i].weight, sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

void Repeat(double seconds, HostSpeed* host, const std::function<void(int rep)>& job) {
  const int64_t deadline = trace::NowNs() + static_cast<int64_t>(seconds * 1e9);
  int reps = 0;
  while (reps < kMinJobs || trace::NowNs() < deadline) {
    host->MaybeSample();
    job(reps++);
  }
}

void ReportOpsPerCpu(const std::vector<double>& cpu_eps, const HostSpeed& host, RunResult* r) {
  r->metrics["ops_per_cpu_s"] = Median(cpu_eps) * host.Factor();
  char buf[224];
  std::snprintf(buf, sizeof(buf),
                "host speed: calibration median %.3f ms cpu over %zu samples (reference %.1f "
                "ms), factor %.4f; uncalibrated median ops/cpu-s %.0f",
                Median(host.samples()) * 1e3, host.samples().size(),
                kCalibrationReferenceS * 1e3, host.Factor(), Median(cpu_eps));
  r->notes.push_back(buf);
}

double BestJob(const std::vector<double>& eps) {
  return eps.empty() ? 0.0 : *std::max_element(eps.begin(), eps.end());
}

std::string DescribeJobs(const std::vector<double>& eps, const std::vector<double>& cpu_eps) {
  char buf[224];
  std::snprintf(buf, sizeof(buf),
                "untraced jobs=%zu, examples/s median %.0f, best %.0f; examples/cpu-s median "
                "%.0f, best %.0f",
                eps.size(), Median(eps), BestJob(eps), Median(cpu_eps), BestJob(cpu_eps));
  return buf;
}

Tail ReportTail(const std::string& what, const std::vector<double>& samples, double wanted,
                size_t window, RunResult* r) {
  const Tail t = Summarize(samples, wanted);
  char buf[224];
  std::snprintf(buf, sizeof(buf), ": n=%zu, p50 %.4g, p%.4g %.4g", t.n, t.p50, t.tail_q, t.tail);
  std::string note = what + buf;
  const Tail w = WindowedTail(samples, wanted, window);
  if (w.windows > 1) {
    std::snprintf(buf, sizeof(buf),
                  "; companion, lower quartile over %zu windows of %zu: p50 %.4g, p%.4g %.4g",
                  w.windows, window, w.p50, w.tail_q, w.tail);
    note += buf;
  }
  r->notes.push_back(note);
  return t;
}

double TimedSetup(const std::function<void()>& setup) {
  std::vector<double> samples;
  for (int i = 0; i < kSetupReps; ++i) {
    const int64_t t0 = trace::NowNs();
    setup();
    samples.push_back(static_cast<double>(trace::NowNs() - t0) * 1e-9);
  }
  return Median(samples);
}

TraceReport::TraceReport(int traced_reps)
    : trace_(trace::Drain()),
      totals_(trace::SelfTimes(trace_.threads)),
      reps_(std::max(1, traced_reps)) {}

double TraceReport::Self(const char* layer) const {
  const auto it = totals_.self_s.find(layer);
  return it == totals_.self_s.end() ? 0.0 : it->second / reps_;
}

double TraceReport::Count(const char* layer) const {
  const auto it = totals_.count.find(layer);
  return it == totals_.count.end() ? 0.0 : static_cast<double>(it->second) / reps_;
}

std::vector<double> TraceReport::DurationsUs(const char* layer) const {
  return trace::DurationsUs(trace_.threads, layer);
}

void TraceReport::Finish(double overhead_frac, const std::string& tsv_path, RunResult* r) const {
  double layers = 0.0;
  for (const auto& [name, s] : totals_.self_s) layers += s;
  r->metrics["trace.wall_s"] = trace_.wall_s / reps_;
  r->metrics["trace.other_s"] = Self("other");
  // Self times (every layer plus "other") against the wall time the Root
  // scopes clocked on their threads.
  r->metrics["trace.reconcile_err"] =
      trace_.wall_s > 0.0 ? std::abs(layers - trace_.wall_s) / trace_.wall_s : 1.0;
  r->metrics["trace.overhead_frac"] = overhead_frac;
  size_t spans = 0;
  for (const auto& t : trace_.threads) spans += t.size();
  r->notes.push_back("trace: " + std::to_string(spans) + " spans on " +
                     std::to_string(trace_.threads.size()) + " threads, " +
                     std::to_string(static_cast<int>(reps_)) + " traced jobs, written to " +
                     tsv_path);
  if (!trace::WriteTsv(trace_.threads, tsv_path)) {
    r->notes.push_back("trace: could not write " + tsv_path);
  }
}

}  // namespace perfbench
