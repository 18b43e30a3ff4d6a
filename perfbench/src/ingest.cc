// Workload `ingest`: the paper's sequential learner fed from libsvm text.
//
// One thread parses RCV1-profile text line by line and feeds 512-example
// chunks through Learner::UpdateBatch into a WM-Sketch and an AWM-Sketch,
// publishing a serving snapshot of each every kPublishEvery examples and
// finishing with TopK(128). Parsing, the update kernels, heap offers and
// copy-on-write publishing do nearly all the work; no thread, socket or
// merge is involved.

#include <cmath>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "engine/serving.h"
#include "machine.h"
#include "stats.h"
#include "stream/libsvm_io.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

using wmsketch::Example;
using wmsketch::FeatureWeight;
using wmsketch::Learner;

constexpr size_t kChunk = 512;
constexpr size_t kPublishEvery = 2048;
// Keys whose estimates the parse-path check compares bit for bit.
constexpr uint32_t kCheckKeys = 4096;

struct Models {
  Learner wm;
  Learner awm;
};

wmsketch::Result<Models> BuildModels() {
  WMS_ASSIGN_OR_RETURN(Learner wm, PaperBuilder()
                                       .SetMethod(wmsketch::Method::kWmSketch)
                                       .SetWidth(256)
                                       .SetDepth(3)
                                       .SetHeapCapacity(128)
                                       .ServeEvery(0)
                                       .Build());
  WMS_ASSIGN_OR_RETURN(Learner awm, PaperBuilder()
                                        .SetMethod(wmsketch::Method::kAwmSketch)
                                        .SetWidth(256)
                                        .SetDepth(1)
                                        .SetHeapCapacity(256)
                                        .ServeEvery(0)
                                        .Build());
  return Models{std::move(wm), std::move(awm)};
}

struct JobOut {
  bool ok = true;
  uint64_t parse_errors = 0;
  double seconds = 0.0;
  double cpu_seconds = 0.0;
  std::vector<double> chunk_us;
  std::vector<double> freshness_ms;
  std::vector<FeatureWeight> topk_wm;
  std::vector<FeatureWeight> topk_awm;
  uint64_t publishes = 0;
  uint64_t publish_bytes = 0;
};

/// One job; the trained models are left in `*keep`.
JobOut RunJob(const Stream& stream, std::optional<Models>* keep) {
  JobOut out;
  wmsketch::Result<Models> built = BuildModels();
  if (!built.ok()) {
    out.ok = false;
    return out;
  }
  Learner wm = std::move(built.value().wm);
  Learner awm = std::move(built.value().awm);
  // Initializes serving (ServeEvery(0): only the explicit publishes below).
  auto h1 = wm.AcquireServingHandle();
  auto h2 = awm.AcquireServingHandle();
  if (!h1.ok() || !h2.ok()) {
    out.ok = false;
    return out;
  }
  const uint64_t copied0 =
      wm.impl().publish_stats().copied_bytes + awm.impl().publish_stats().copied_bytes;

  std::vector<Example> chunk(kChunk);
  out.chunk_us.reserve(stream.lines.size() / kChunk + 1);
  const int64_t t0 = trace::NowNs();
  const double cpu0 = ProcessCpuSeconds();
  {
    trace::Root root;
    for (size_t at = 0; at < stream.lines.size(); at += kChunk) {
      const size_t n = std::min(kChunk, stream.lines.size() - at);
      const int64_t c0 = trace::NowNs();
      int64_t last_read = c0;
      size_t got = 0;
      for (size_t i = 0; i < n; ++i) {
        last_read = trace::NowNs();
        wmsketch::Result<Example> ex = [&] {
          trace::Scope span("stream");
          return wmsketch::ParseLibsvmLine(stream.lines[at + i]);
        }();
        if (!ex.ok()) {
          ++out.parse_errors;
          continue;
        }
        chunk[got++] = std::move(ex).value();
      }
      const std::span<const Example> batch(chunk.data(), got);
      {
        trace::Scope span("api.update.wm");
        wm.UpdateBatch(batch);
      }
      {
        trace::Scope span("api.update.awm");
        awm.UpdateBatch(batch);
      }
      const int64_t c1 = trace::NowNs();
      out.chunk_us.push_back(static_cast<double>(c1 - c0) * 1e-3);
      if ((at + n) % kPublishEvery == 0 || at + n == stream.lines.size()) {
        {
          trace::Scope span("engine.publish");
          wm.PublishServingSnapshot();
        }
        {
          trace::Scope span("engine.publish");
          awm.PublishServingSnapshot();
        }
        out.publishes += 2;
        out.freshness_ms.push_back(static_cast<double>(trace::NowNs() - last_read) * 1e-6);
      }
    }
    {
      trace::Scope span("api.topk");
      out.topk_wm = wm.TopK(kRelErrK);
    }
    {
      trace::Scope span("api.topk");
      out.topk_awm = awm.TopK(kRelErrK);
    }
  }
  out.seconds = static_cast<double>(trace::NowNs() - t0) * 1e-9;
  out.cpu_seconds = ProcessCpuSeconds() - cpu0;
  out.publish_bytes =
      wm.impl().publish_stats().copied_bytes + awm.impl().publish_stats().copied_bytes - copied0;
  keep->emplace(Models{std::move(wm), std::move(awm)});
  return out;
}

/// The parse-path models must be bit-identical to models trained from the
/// in-memory examples: same estimates over a fixed key set, same top-K.
bool SameModel(const Learner& a, const Learner& b) {
  for (uint32_t k = 0; k < kCheckKeys; ++k) {
    const float x = a.WeightEstimate(k);
    const float y = b.WeightEstimate(k);
    if (std::memcmp(&x, &y, sizeof(float)) != 0) return false;
  }
  return SameTopK(a.TopK(kRelErrK), b.TopK(kRelErrK));
}

}  // namespace

RunResult RunIngest(const RunConfig& cfg) {
  RunResult r;
  PinSelf(CpuForSlot(0));

  Stream stream;
  std::vector<float> w_star;
  bool setup_ok = true;
  r.metrics["setup_s"] = TimedSetup([&] {
    wmsketch::Result<Stream> s = MakeStream(cfg.root, cfg.seed, kStreamExamples, true);
    if (!s.ok()) {
      setup_ok = false;
      r.notes.push_back("setup: " + s.status().ToString());
      return;
    }
    stream = std::move(s).value();
    w_star = DenseReference(stream.parsed, stream.parsed.size(), stream.dimension);
  });
  r.Check(setup_ok, "setup");
  if (!setup_ok) return r;

  std::vector<double> eps_untraced, eps_traced, cpu_eps, chunk_us, freshness_ms;
  std::vector<FeatureWeight> first_topk;
  uint64_t traced_publishes = 0, traced_bytes = 0;
  int traced_reps = 0;
  std::optional<Models> last;
  // Calibrated on the CPUs the job's threads run on.
  HostSpeed host({CpuForSlot(0)});
  Repeat(cfg.seconds, &host, [&](int rep) {
    const bool traced = cfg.trace && rep % 2 == 1;
    trace::SetEnabled(traced);
    JobOut job = RunJob(stream, &last);
    trace::SetEnabled(false);
    r.attempted += stream.lines.size();
    r.failed += job.parse_errors;
    r.Check(job.ok, "ingest: learner build");
    if (rep == 0) first_topk = job.topk_awm;
    r.Check(SameTopK(job.topk_awm, first_topk), "ingest: repeated job gave a different AWM top-K");
    const double eps = static_cast<double>(stream.lines.size()) / job.seconds;
    if (traced) {
      eps_traced.push_back(eps);
      traced_publishes += job.publishes;
      traced_bytes += job.publish_bytes;
      ++traced_reps;
    } else {
      eps_untraced.push_back(eps);
      cpu_eps.push_back(static_cast<double>(stream.lines.size()) / job.cpu_seconds);
      chunk_us.insert(chunk_us.end(), job.chunk_us.begin(), job.chunk_us.end());
      freshness_ms.insert(freshness_ms.end(), job.freshness_ms.begin(), job.freshness_ms.end());
    }
  });

  // Reference models from the in-memory examples, one UpdateBatch each.
  wmsketch::Result<Models> ref = BuildModels();
  r.Check(ref.ok() && last.has_value(), "ingest: learner build");
  if (ref.ok() && last.has_value()) {
    ref.value().wm.UpdateBatch(stream.parsed);
    ref.value().awm.UpdateBatch(stream.parsed);
    r.Check(SameModel(last->wm, ref.value().wm),
            "ingest: WM parse path differs from in-memory examples");
    r.Check(SameModel(last->awm, ref.value().awm),
            "ingest: AWM parse path differs from in-memory examples");
  }

  const Tail req = ReportTail("req (us) = one 512-line chunk (parse, WM and AWM updates)",
                              chunk_us, 99.0, kWindowP99, &r);
  const Tail fresh = ReportTail("freshness (ms) = last line read to publish done", freshness_ms,
                                90.0, kWindowP90, &r);
  r.metrics["ingest_eps"] = BestJob(eps_untraced);
  ReportOpsPerCpu(cpu_eps, host, &r);
  r.metrics["topk_rel_err"] = RelErr(first_topk, w_star);
  r.metrics["req_p50_us"] = req.p50;
  r.metrics["req_p99_us"] = req.tail;
  r.metrics["max_rate_rps"] = BestJob(eps_untraced) / static_cast<double>(kChunk);
  r.metrics["freshness_p90_ms"] = fresh.tail;
  r.notes.push_back(DescribeJobs(eps_untraced, cpu_eps));

  if (cfg.trace) {
    const TraceReport t(traced_reps);
    const double reps = std::max(1, traced_reps);
    r.metrics["stream.parse_s"] = t.Self("stream");
    r.metrics["stream.lines"] = t.Count("stream");
    r.metrics["api.update_s.wm"] = t.Self("api.update.wm");
    r.metrics["api.update_s.awm"] = t.Self("api.update.awm");
    r.metrics["api.topk_s"] = t.Self("api.topk");
    r.metrics["engine.publish_s"] = t.Self("engine.publish");
    r.metrics["engine.publishes"] = static_cast<double>(traced_publishes) / reps;
    r.metrics["engine.publish_p99_us"] = Summarize(t.DurationsUs("engine.publish"), 99.0).tail;
    r.metrics["engine.publish_bytes"] =
        traced_publishes == 0 ? 0.0 : static_cast<double>(traced_bytes) / traced_publishes;
    t.Finish(1.0 - BestJob(eps_traced) / BestJob(eps_untraced), cfg.work_dir + "/trace_ingest.tsv",
             &r);
  }
  return r;
}

}  // namespace perfbench
