// Workload `sync`: distributed training through the merge aggregator.
//
// Three worker threads train disjoint partitions of the pre-parsed stream
// (example i goes to worker i mod 3), each into its own Learner (AWM-Sketch,
// width 65536, heap 512: the bench_dist_sync shape) and each with its own
// dist::SyncClient. Workers call Sync every kSyncEvery examples and once at
// the end; one in-process dist::Aggregator thread runs PollOnce on a Unix
// socket, blocking between events as ServeUntilShutdown does; the job ends
// when FetchMergedBytes returns. This is the only
// workload where dist framing, delta encoding and applying, and the
// aggregator poll loop do the work. The 256 KB table leaves L1/L2 and spans
// many pages, so dirty-page deltas differ from full snapshots.

#include <unistd.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dist/aggregator.h"
#include "dist/worker.h"
#include "machine.h"
#include "stats.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

using wmsketch::Example;
using wmsketch::FeatureWeight;
using wmsketch::Learner;

constexpr int kWorkers = 3;
/// The aggregator blocks in PollOnce; the timeout only bounds how long a
/// stop request waits when no connection is left to wake it.
constexpr int kPollTimeoutMs = 100;
/// A worker syncs every kSyncEvery examples.
constexpr size_t kSyncEvery = 512;
constexpr size_t kChunk = kSyncEvery;
/// Examples the job trains in total: one pass over the stream.
constexpr size_t kJobExamples = kStreamExamples;

wmsketch::Result<Learner> BuildWorkerModel() {
  return PaperBuilder()
      .SetMethod(wmsketch::Method::kAwmSketch)
      .SetWidth(65536)
      .SetDepth(1)
      .SetHeapCapacity(512)
      .Build();
}

struct WorkerOut {
  wmsketch::Status status;
  std::vector<double> sync_ms;
  std::vector<double> freshness_ms;
  wmsketch::dist::SyncStats stats;
  double pages_shipped = 0.0;
  double pages_total = 0.0;
};

struct JobOut {
  bool ok = true;
  std::string error;
  double seconds = 0.0;
  double cpu_seconds = 0.0;
  double poll_cpu_s = 0.0;
  std::vector<WorkerOut> workers;
  bool merged_matches = false;
  std::string merged_bytes;
};

JobOut RunJob(const std::vector<std::vector<Example>>& partitions, const std::string& socket) {
  JobOut out;
  std::vector<Learner> models;
  for (int w = 0; w < kWorkers; ++w) {
    wmsketch::Result<Learner> built = BuildWorkerModel();
    if (!built.ok()) {
      out.ok = false;
      out.error = built.status().ToString();
      return out;
    }
    models.push_back(std::move(built).value());
  }
  wmsketch::dist::AggregatorOptions aopts;
  aopts.config = models[0].config();
  aopts.opts = models[0].options();
  wmsketch::Result<wmsketch::dist::Aggregator> agg_r = wmsketch::dist::Aggregator::Create(aopts);
  if (!agg_r.ok()) {
    out.ok = false;
    out.error = agg_r.status().ToString();
    return out;
  }
  wmsketch::dist::Aggregator agg = std::move(agg_r).value();
  if (const wmsketch::Status st = agg.Bind(socket); !st.ok()) {
    out.ok = false;
    out.error = st.ToString();
    return out;
  }

  std::atomic<bool> poll_failed{false};
  // Joined (after a stop request) on every path out of this function.
  std::jthread aggregator([&](std::stop_token stop) {
    PinSelf(CpuForSlot(0));
    const double cpu0 = ThreadCpuSeconds();
    {
      // Its wall time, waiting included, is the thread's "other"; its CPU
      // time is the time it was busy.
      trace::Root root;
      while (!stop.stop_requested()) {
        if (!agg.PollOnce(kPollTimeoutMs).ok()) poll_failed.store(true);
      }
    }
    out.poll_cpu_s = ThreadCpuSeconds() - cpu0;
  });

  std::vector<std::unique_ptr<wmsketch::dist::SyncClient>> clients;
  for (int w = 0; w < kWorkers; ++w) {
    wmsketch::dist::SyncClientOptions copts;
    copts.worker_id = static_cast<uint64_t>(w + 1);
    copts.socket_path = socket;
    clients.push_back(
        std::make_unique<wmsketch::dist::SyncClient>(models[static_cast<size_t>(w)].method(), copts));
  }
  for (int w = 0; w < kWorkers; ++w) {
    if (const wmsketch::Status st = clients[w]->Connect(models[w].impl()); !st.ok()) {
      out.ok = false;
      out.error = st.ToString();
    }
  }

  out.workers.resize(kWorkers);
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::jthread> threads;
  for (int w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&, w] {
      PinSelf(CpuForSlot(1 + w));
      WorkerOut& wo = out.workers[static_cast<size_t>(w)];
      Learner& model = models[static_cast<size_t>(w)];
      wmsketch::dist::SyncClient& client = *clients[static_cast<size_t>(w)];
      const std::vector<Example>& part = partitions[static_cast<size_t>(w)];
      const size_t quota = kJobExamples / kWorkers;
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) {
      }
      trace::Root root;
      auto sync = [&](int64_t last_trained) {
        const int64_t s0 = trace::NowNs();
        {
          trace::Scope span("dist.sync");
          const wmsketch::Status st = client.Sync(model.impl());
          if (!st.ok() && wo.status.ok()) wo.status = st;
        }
        const int64_t s1 = trace::NowNs();
        wo.sync_ms.push_back(static_cast<double>(s1 - s0) * 1e-6);
        wo.freshness_ms.push_back(static_cast<double>(s1 - last_trained) * 1e-6);
        const wmsketch::dist::SyncStats& s = client.stats();
        if (s.delta_syncs > wo.stats.delta_syncs) {
          wo.pages_shipped += static_cast<double>(s.last_pages_shipped);
          wo.pages_total += static_cast<double>(s.last_pages_total);
        }
        wo.stats = s;
      };
      size_t done = 0;
      while (done < quota) {
        const size_t at = done % part.size();
        const size_t n = std::min({kChunk, quota - done, part.size() - at});
        {
          trace::Scope span("api.update.awm");
          model.UpdateBatch(std::span<const Example>(part.data() + at, n));
        }
        done += n;
        if (done % kSyncEvery == 0 || done == quota) sync(trace::NowNs());
      }
    });
  }
  while (ready.load() < kWorkers) {
  }
  const int64_t t0 = trace::NowNs();
  // The process's CPU time: the workers' and the aggregator's (this thread
  // blocks in join meanwhile).
  const double cpu0 = ProcessCpuSeconds();
  go.store(true, std::memory_order_release);
  for (std::jthread& t : threads) t.join();
  // Worker 1's client fetches the exact merge of all three replicas.
  wmsketch::Result<std::string> merged = [&] {
    trace::Root root;
    trace::Scope span("dist.fetch");
    return clients[0]->FetchMergedBytes();
  }();
  const int64_t t1 = trace::NowNs();
  out.cpu_seconds = ProcessCpuSeconds() - cpu0;
  out.seconds = static_cast<double>(t1 - t0) * 1e-9;
  // Closing the connections wakes the aggregator to see the stop request.
  aggregator.request_stop();
  for (const auto& c : clients) c->Close();
  aggregator.join();
  if (poll_failed.load()) {
    out.ok = false;
    out.error = "aggregator PollOnce failed";
  }
  for (const WorkerOut& wo : out.workers) {
    if (!wo.status.ok()) {
      out.ok = false;
      out.error = wo.status.ToString();
    }
  }
  if (!merged.ok()) {
    out.ok = false;
    out.error = merged.status().ToString();
    return out;
  }
  out.merged_bytes = std::move(merged).value();

  // The aggregator merges replicas in ascending worker id, so the in-process
  // reference is ((w1 + w2) + w3) over the workers' own final models.
  for (int w = 1; w < kWorkers; ++w) {
    if (!models[0].Merge(models[static_cast<size_t>(w)]).ok()) out.ok = false;
  }
  std::ostringstream local(std::ios::binary);
  out.merged_matches =
      wmsketch::SaveLearner(models[0], local).ok() && local.str() == out.merged_bytes;
  return out;
}

}  // namespace

RunResult RunSync(const RunConfig& cfg) {
  RunResult r;
  PinSelf(CpuForSlot(0));

  std::vector<std::vector<Example>> partitions;
  std::vector<float> w_star;
  bool setup_ok = true;
  r.metrics["setup_s"] = TimedSetup([&] {
    wmsketch::Result<Stream> s = MakeStream(cfg.root, cfg.seed, kStreamExamples, false);
    if (!s.ok()) {
      setup_ok = false;
      r.notes.push_back("setup: " + s.status().ToString());
      return;
    }
    partitions.assign(kWorkers, {});
    for (size_t i = 0; i < s.value().parsed.size(); ++i) {
      partitions[i % kWorkers].push_back(s.value().parsed[i]);
    }
    w_star = DenseReference(s.value().parsed, s.value().parsed.size(), s.value().dimension);
  });
  r.Check(setup_ok, "setup");
  if (!setup_ok) return r;

  const std::string socket = cfg.work_dir + "/sync-" + std::to_string(::getpid()) + ".sock";
  std::vector<double> eps_untraced, eps_traced, cpu_eps, sync_ms, freshness_ms;
  double poll_cpu_s = 0.0;
  double syncs = 0.0, deltas = 0.0, retries = 0.0, bytes = 0.0, pages = 0.0, pages_total = 0.0;
  int traced_reps = 0;
  std::string first_merged;
  // Calibrated on the CPUs the job's threads run on.
  HostSpeed host({CpuForSlot(0), CpuForSlot(1), CpuForSlot(2), CpuForSlot(3)});
  Repeat(cfg.seconds, &host, [&](int rep) {
    const bool traced = cfg.trace && rep % 2 == 1;
    trace::SetEnabled(traced);
    JobOut job = RunJob(partitions, socket);
    trace::SetEnabled(false);
    r.Check(job.ok, "sync: " + job.error);
    r.Check(job.merged_matches, "sync: merged bytes differ from an in-process Learner::Merge");
    if (rep == 0) first_merged = job.merged_bytes;
    r.Check(job.merged_bytes == first_merged, "sync: repeated job gave different merged bytes");
    const double eps = static_cast<double>(kJobExamples) / job.seconds;
    uint64_t attempted_syncs = 0, failed_syncs = 0;
    for (const WorkerOut& wo : job.workers) {
      attempted_syncs += wo.stats.syncs + wo.stats.retries;
      failed_syncs += wo.stats.retries;
    }
    r.attempted += attempted_syncs;
    r.failed += failed_syncs;
    if (traced) {
      eps_traced.push_back(eps);
      poll_cpu_s += job.poll_cpu_s;
      for (const WorkerOut& wo : job.workers) {
        syncs += static_cast<double>(wo.stats.syncs);
        deltas += static_cast<double>(wo.stats.delta_syncs);
        retries += static_cast<double>(wo.stats.retries);
        bytes += static_cast<double>(wo.stats.bytes_shipped);
        pages += wo.pages_shipped;
        pages_total += wo.pages_total;
      }
      ++traced_reps;
    } else {
      eps_untraced.push_back(eps);
      cpu_eps.push_back(static_cast<double>(kJobExamples) / job.cpu_seconds);
      for (const WorkerOut& wo : job.workers) {
        sync_ms.insert(sync_ms.end(), wo.sync_ms.begin(), wo.sync_ms.end());
        freshness_ms.insert(freshness_ms.end(), wo.freshness_ms.begin(), wo.freshness_ms.end());
      }
    }
  });
  ::unlink(socket.c_str());

  // Parameter mixing: the merged model is the sum of the workers' weights;
  // its average is what RelErr compares against the dense reference.
  double err = 0.0;
  {
    std::istringstream in(first_merged, std::ios::binary);
    wmsketch::Result<Learner> merged = wmsketch::LoadLearner(in, wmsketch::LearnerOptions());
    r.Check(merged.ok(), "sync: merged bytes do not load");
    if (merged.ok()) {
      Learner m = std::move(merged).value();
      r.Check(m.impl().ScaleWeights(1.0 / kWorkers).ok(), "sync: ScaleWeights");
      err = RelErr(m.TopK(kRelErrK), w_star);
    }
  }

  const Tail req = ReportTail("req (ms) = one SyncClient::Sync (serialize, ship, ack)", sync_ms,
                              99.0, kWindowP99, &r);
  const Tail fresh = ReportTail("freshness (ms) = worker's last update to aggregator ack",
                                freshness_ms, 90.0, kWindowP90, &r);
  r.metrics["ingest_eps"] = BestJob(eps_untraced);
  ReportOpsPerCpu(cpu_eps, host, &r);
  r.metrics["topk_rel_err"] = err;
  r.metrics["req_p50_us"] = req.p50 * 1e3;
  r.metrics["req_p99_us"] = req.tail * 1e3;
  const double syncs_per_job =
      static_cast<double>(sync_ms.size()) / static_cast<double>(std::max<size_t>(1, eps_untraced.size()));
  r.metrics["max_rate_rps"] = BestJob(eps_untraced) / static_cast<double>(kJobExamples) * syncs_per_job;
  r.metrics["freshness_p90_ms"] = fresh.tail;
  r.notes.push_back(DescribeJobs(eps_untraced, cpu_eps));

  if (cfg.trace) {
    const TraceReport t(traced_reps);
    const double reps = std::max(1, traced_reps);
    r.metrics["api.update_s.awm"] = t.Self("api.update.awm");
    r.metrics["dist.sync_s"] = t.Self("dist.sync");
    r.metrics["dist.sync_p99_ms"] = Summarize(t.DurationsUs("dist.sync"), 99.0).tail * 1e-3;
    r.metrics["dist.bytes_per_sync"] = syncs > 0 ? bytes / syncs : 0.0;
    r.metrics["dist.delta_share"] = syncs > 0 ? deltas / syncs : 0.0;
    r.metrics["dist.pages_shipped_ratio"] = pages_total > 0 ? pages / pages_total : 0.0;
    r.metrics["dist.useful_ratio"] = syncs + retries > 0 ? syncs / (syncs + retries) : 0.0;
    r.metrics["dist.poll_busy_s"] = poll_cpu_s / reps;
    r.metrics["dist.fetch_merged_s"] = t.Self("dist.fetch");
    t.Finish(1.0 - BestJob(eps_traced) / BestJob(eps_untraced), cfg.work_dir + "/trace_sync.tsv",
             &r);
  }
  return r;
}

}  // namespace perfbench
