// Network serving load generator: closed-loop clients hammer an in-process
// wms_serve daemon over a loopback Unix-domain socket and report QPS plus
// p50/p99 per-request latency versus connection count and batch-cut policy.
//
//   ./bench_net_serving [--json BENCH_net_serving.json] [--readers N]
//                       [--socket-dir /tmp]
//
// Two policies on the same trained model:
//   naive     max_batch=1   — the server cuts a dispatch after every single
//                             request: one snapshot pin + one kernel call
//                             per arriving request (what a non-batching RPC
//                             front-end would do);
//   coalesce  max_batch=256 — concurrently-pending requests drain into one
//                             PredictBatch/EstimateBatch micro-batch (the
//                             tentpole path: one pin, one SIMD dispatch).
// Each (policy, connections) cell runs C closed-loop client threads issuing
// single-example predict requests; rows land next to bench_serving's
// in-process numbers so the network tax is measured, not guessed. A second
// section measures the version-keyed top-K cache: cold miss vs hot hit on
// the same connection, with the server's hit counters echoed into the row.
//
// JSON rows carry kernel tags "net-predict" / "net-topk" so check_perf.py
// normalizes the closed-loop QPS rows separately from the cache rows
// (--kernel net-predict, --metrics qps + --lower-better p99_us).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <unistd.h>

#include "bench/bench_common.h"
#include "net/client.h"
#include "net/server.h"

namespace wmsketch::bench {
namespace {

struct PolicyConfig {
  const char* label;
  size_t max_batch;
};

constexpr PolicyConfig kPolicies[] = {
    {"naive", 1},
    {"coalesce", 256},
};

constexpr int kConnectionCounts[] = {1, 2, 8};

double Seconds(std::chrono::steady_clock::time_point a,
               std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct LoadResult {
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double coalesce_mean = 0.0;  // requests per server-side batch dispatch
  double checksum = 0.0;
};

/// C closed-loop clients, each issuing `ops` single-example predicts.
LoadResult RunPredictLoad(const std::string& socket_path, net::ServingServer& server,
                          const std::vector<Example>& queries, int connections,
                          size_t ops_per_client) {
  std::atomic<bool> start{false};
  std::atomic<int> failures{0};
  std::vector<std::vector<double>> latencies(static_cast<size_t>(connections));
  std::vector<double> checksums(static_cast<size_t>(connections), 0.0);
  std::vector<std::thread> clients;
  clients.reserve(static_cast<size_t>(connections));

  const net::ServerStats before = server.stats();
  for (int c = 0; c < connections; ++c) {
    clients.emplace_back([&, c] {
      Result<net::ServingClient> conn = net::ServingClient::ConnectUnix(socket_path);
      if (!conn.ok()) {
        failures.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      net::ServingClient client = std::move(conn).value();
      std::vector<double>& lat = latencies[static_cast<size_t>(c)];
      lat.reserve(ops_per_client);
      size_t at = static_cast<size_t>(c) * 17 % queries.size();
      while (!start.load(std::memory_order_acquire)) std::this_thread::yield();
      for (size_t op = 0; op < ops_per_client; ++op) {
        const std::span<const Example> one(queries.data() + at, 1);
        const auto t0 = std::chrono::steady_clock::now();
        Result<net::PredictResponse> resp = client.Predict(one);
        const auto t1 = std::chrono::steady_clock::now();
        if (!resp.ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        lat.push_back(Seconds(t0, t1) * 1e6);
        checksums[static_cast<size_t>(c)] += resp.value().margins[0];
        at = (at + 1) % queries.size();
      }
    });
  }

  start.store(true, std::memory_order_release);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::thread& t : clients) t.join();
  const auto t1 = std::chrono::steady_clock::now();
  if (failures.load() != 0) {
    std::fprintf(stderr, "bench_net_serving: %d client failures\n", failures.load());
    std::exit(1);
  }
  const net::ServerStats after = server.stats();

  LoadResult out;
  std::vector<double> all;
  for (int c = 0; c < connections; ++c) {
    all.insert(all.end(), latencies[static_cast<size_t>(c)].begin(),
               latencies[static_cast<size_t>(c)].end());
    out.checksum += checksums[static_cast<size_t>(c)];
  }
  out.qps = static_cast<double>(all.size()) / Seconds(t0, t1);
  out.p50_us = Percentile(all, 50.0);
  out.p99_us = Percentile(all, 99.0);
  const uint64_t batches = after.batches_dispatched - before.batches_dispatched;
  const uint64_t reqs = after.requests_batched - before.requests_batched;
  out.coalesce_mean =
      batches == 0 ? 0.0 : static_cast<double>(reqs) / static_cast<double>(batches);
  return out;
}

struct TopKResultRow {
  double cold_us = 0.0;  // first request against a fresh snapshot version
  double hot_qps = 0.0;
  double hot_p50_us = 0.0;
  double hot_p99_us = 0.0;
  double hit_rate = 0.0;  // server-side: hits / (hits + misses) for the run
};

TopKResultRow RunTopKLoad(const std::string& socket_path, net::ServingServer& server,
                          size_t ops) {
  Result<net::ServingClient> conn = net::ServingClient::ConnectUnix(socket_path);
  if (!conn.ok()) {
    std::fprintf(stderr, "bench_net_serving: %s\n", conn.status().ToString().c_str());
    std::exit(1);
  }
  net::ServingClient client = std::move(conn).value();
  const net::ServerStats before = server.stats();

  TopKResultRow out;
  const auto c0 = std::chrono::steady_clock::now();
  Result<net::TopKResponse> cold = client.TopK(64);
  const auto c1 = std::chrono::steady_clock::now();
  if (!cold.ok()) {
    std::fprintf(stderr, "bench_net_serving: %s\n", cold.status().ToString().c_str());
    std::exit(1);
  }
  out.cold_us = Seconds(c0, c1) * 1e6;

  std::vector<double> lat;
  lat.reserve(ops);
  const auto t0 = std::chrono::steady_clock::now();
  for (size_t op = 0; op < ops; ++op) {
    const auto h0 = std::chrono::steady_clock::now();
    Result<net::TopKResponse> hot = client.TopK(64);
    const auto h1 = std::chrono::steady_clock::now();
    if (!hot.ok()) {
      std::fprintf(stderr, "bench_net_serving: %s\n", hot.status().ToString().c_str());
      std::exit(1);
    }
    lat.push_back(Seconds(h0, h1) * 1e6);
  }
  const auto t1 = std::chrono::steady_clock::now();
  const net::ServerStats after = server.stats();

  out.hot_qps = static_cast<double>(ops) / Seconds(t0, t1);
  out.hot_p50_us = Percentile(lat, 50.0);
  out.hot_p99_us = Percentile(lat, 99.0);
  const double hits = static_cast<double>(after.topk_cache_hits - before.topk_cache_hits);
  const double misses =
      static_cast<double>(after.topk_cache_misses - before.topk_cache_misses);
  out.hit_rate = hits + misses == 0.0 ? 0.0 : hits / (hits + misses);
  return out;
}

}  // namespace
}  // namespace wmsketch::bench

int main(int argc, char** argv) {
  using namespace wmsketch;
  using namespace wmsketch::bench;

  const int readers = IntFlagArg(argc, argv, "--readers", 2);
  std::string socket_dir = StrFlagArg(argc, argv, "--socket-dir");
  if (socket_dir.empty()) socket_dir = "/tmp";
  const ClassificationProfile profile = ClassificationProfile::Rcv1Like();

  // One trained model behind every cell so policies compare like-for-like.
  Learner model = BuildOrDie(PaperBuilder(1e-6, 77)
                                 .SetMethod(Method::kAwmSketch)
                                 .SetWidth(256)
                                 .SetDepth(1)
                                 .SetHeapCapacity(256)
                                 .ServeEvery(0)
                                 .Build());
  SyntheticClassificationGen gen(profile, 88);
  std::vector<Example> stream;
  const int examples = ScaledCount(40000);
  stream.reserve(static_cast<size_t>(examples));
  for (int i = 0; i < examples; ++i) stream.push_back(gen.Next());
  model.UpdateBatch(stream);
  model.PublishServingSnapshot();
  const size_t ops_total = static_cast<size_t>(ScaledCount(24000));

  Banner("Network predict — closed-loop single-example requests over a loopback "
         "Unix socket, " + std::to_string(readers) + " reader threads (" +
         std::to_string(std::thread::hardware_concurrency()) + " hardware threads)");
  PrintRow({"policy", "conns", "qps", "p50_us", "p99_us", "coalesce"});

  BenchJson json("net_serving");
  for (const PolicyConfig& policy : kPolicies) {
    const std::string path = socket_dir + "/wms_bench_net_" + policy.label + "_" +
                             std::to_string(::getpid());
    net::ServerOptions options;
    options.unix_path = path;
    options.readers = readers;
    options.max_batch = policy.max_batch;
    Result<std::unique_ptr<net::ServingServer>> started = net::ServingServer::Start(
        options, [&] { return model.AcquireServingHandle(); });
    if (!started.ok()) {
      std::fprintf(stderr, "bench_net_serving: %s\n",
                   started.status().ToString().c_str());
      return 1;
    }
    std::unique_ptr<net::ServingServer> server = std::move(started).value();

    // Untimed warm-up: first-connection costs (page faults, allocator and
    // snapshot-pin warm-up on both sides) otherwise land entirely in the
    // first measured cell and skew its tail against the committed baseline.
    (void)RunPredictLoad(path, *server, stream, 2, 256);

    for (const int conns : kConnectionCounts) {
      const size_t per_client =
          std::max<size_t>(64, ops_total / static_cast<size_t>(conns));
      const LoadResult res =
          RunPredictLoad(path, *server, stream, conns, per_client);
      const std::string label =
          std::string("predict_c") + std::to_string(conns) + "_" + policy.label;
      PrintRow({label, std::to_string(conns), Fmt(res.qps, 0), Fmt(res.p50_us, 1),
                Fmt(res.p99_us, 1), Fmt(res.coalesce_mean, 2)});
      json.Row()
          .Str("config", label)
          .Str("base_config", policy.label)
          .Str("kernel", "net-predict")
          .Num("connections", conns)
          .Num("max_batch", static_cast<double>(policy.max_batch))
          .Num("readers", readers)
          .Num("qps", res.qps)
          .Num("p50_us", res.p50_us)
          .Num("p99_us", res.p99_us)
          .Num("coalesce_mean", res.coalesce_mean)
          .Num("checksum", res.checksum);
    }

    if (policy.max_batch > 1) {
      Banner("Top-K over the wire — version-keyed cache on the same daemon "
             "(cold = fresh version, hot = cache hits)");
      PrintRow({"row", "cold_us", "hot_qps", "hot_p50us", "hot_p99us", "hits"});
      const TopKResultRow res =
          RunTopKLoad(path, *server, std::max<size_t>(64, ops_total / 4));
      PrintRow({"topk_k64", Fmt(res.cold_us, 1), Fmt(res.hot_qps, 0),
                Fmt(res.hot_p50_us, 1), Fmt(res.hot_p99_us, 1),
                Fmt(res.hit_rate, 3)});
      json.Row()
          .Str("config", "topk_k64")
          .Str("base_config", "topk")
          .Str("kernel", "net-topk")
          .Num("readers", readers)
          .Num("cold_us", res.cold_us)
          .Num("hot_qps", res.hot_qps)
          .Num("hot_p50_us", res.hot_p50_us)
          .Num("hot_p99_us", res.hot_p99_us)
          .Num("cache_hit_rate", res.hit_rate);
    }
    server->Stop();
  }

  json.WriteIfRequested(argc, argv);
  return 0;
}
