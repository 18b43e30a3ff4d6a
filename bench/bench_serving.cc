// Serving-side developer report, two single-threaded sections (ungated;
// perfbench `serve` is the end-to-end serving benchmark, see
// perfbench/README.md):
//
//   ./bench_serving [--json out.json] [--libsvm data.txt[.gz]]
//                   [--profile profile.json]
//
// "Publish cost" measures what the copy-on-write paged storage buys a
// high-cadence serving tier: for large tables at small publish intervals k
// it times explicit snapshot publications and reports bytes physically
// copied per publish (dirtied pages only) against the full-table bytes the
// pre-paged implementation copied every time, plus per-snapshot resident
// bytes. serving_test pins the k2 row's gain.
//
// "Frozen reads" times batched predicts and point estimates against a
// published snapshot — the paged serving read kernels on their own. These
// rows repeat for every stream ResolveBenchStreams yields (--libsvm replaces
// the synthetic stream; --profile adds a deterministic sparsity-profile
// replay).
//
// Stream lengths scale with WMS_BENCH_SCALE like every other bench.

#include <chrono>
#include <cstdint>

#include "bench/bench_common.h"
#include "engine/serving.h"

namespace wmsketch::bench {
namespace {

constexpr size_t kReadChunk = 256;

struct ServingConfig {
  const char* label;
  Method method;
  uint32_t width;
  uint32_t depth;
  size_t heap;
};

constexpr ServingConfig kConfigs[] = {
    {"wm_w256_d3", Method::kWmSketch, 256, 3, 128},
    {"awm_w256_s256", Method::kAwmSketch, 256, 1, 256},
    {"hash_w4096", Method::kFeatureHashing, 4096, 0, 0},
};

double Seconds(std::chrono::steady_clock::time_point a,
               std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ------------------------------------------------------------ publish cost

struct PublishCostConfig {
  const char* label;
  Method method;
  uint32_t width;
  uint32_t depth;  // 0 = method without a depth knob
  size_t heap;
  uint64_t serve_every;  // the k the row models (updates between publishes)
};

// Large tables + small k: the high-cadence regime the paged storage exists
// for. The k64 row shows the gain eroding as more pages dirty per interval.
constexpr PublishCostConfig kPublishConfigs[] = {
    {"wm_w65536_d3_k2", Method::kWmSketch, 65536, 3, 128, 2},
    {"wm_w65536_d3_k64", Method::kWmSketch, 65536, 3, 128, 64},
    {"hash_w262144_k8", Method::kFeatureHashing, 262144, 0, 0, 8},
};

struct PublishCostResult {
  double publish_bytes = 0.0;          // mean bytes copied per publish
  double publish_us = 0.0;             // mean publish latency
  double full_table_bytes = 0.0;       // what the pre-paged capture copied
  double publish_gain = 0.0;           // full_table_bytes / publish_bytes
  double snapshot_resident_bytes = 0.0;
  uint64_t publishes = 0;
};

PublishCostResult RunPublishCost(const PublishCostConfig& c,
                                 const std::vector<Example>& stream) {
  LearnerBuilder b = PaperBuilder(1e-6, 77).SetMethod(c.method).SetWidth(c.width);
  if (c.depth > 0) b.SetDepth(c.depth);
  if (c.heap > 0) b.SetHeapCapacity(c.heap);
  // ServeEvery(0): the loop paces updates and publishes explicitly so each
  // publication can be timed on its own.
  Learner model = BuildOrDie(b.Build());

  const size_t warm = std::min<size_t>(4096, stream.size() / 4);
  model.UpdateBatch(std::span<const Example>(stream.data(), warm));

  // The first acquisition publishes the initial snapshot — the O(budget)
  // full copy every snapshot used to pay. Not part of the measured window.
  Result<ServingHandle> handle = model.AcquireServingHandle();
  if (!handle.ok()) {
    std::fprintf(stderr, "serving handle: %s\n", handle.status().ToString().c_str());
    std::exit(1);
  }

  const uint64_t publishes = static_cast<uint64_t>(ScaledCount(200));
  const TablePublishStats pub0 = model.impl().publish_stats();
  double publish_seconds = 0.0;
  size_t at = warm;
  for (uint64_t p = 0; p < publishes; ++p) {
    for (uint64_t u = 0; u < c.serve_every; ++u) {
      model.Update(stream[at]);
      at = (at + 1) % stream.size();
    }
    const auto t0 = std::chrono::steady_clock::now();
    model.PublishServingSnapshot();
    const auto t1 = std::chrono::steady_clock::now();
    publish_seconds += Seconds(t0, t1);
  }
  const TablePublishStats pub1 = model.impl().publish_stats();

  PublishCostResult out;
  out.publishes = pub1.publishes - pub0.publishes;
  const size_t cells =
      static_cast<size_t>(c.width) * (c.depth > 0 ? c.depth : 1);
  out.full_table_bytes = static_cast<double>(cells * sizeof(float));
  out.publish_bytes = static_cast<double>(pub1.copied_bytes - pub0.copied_bytes) /
                      static_cast<double>(out.publishes);
  out.publish_us = publish_seconds / static_cast<double>(out.publishes) * 1e6;
  out.publish_gain =
      out.publish_bytes > 0.0 ? out.full_table_bytes / out.publish_bytes : 0.0;
  const auto snap = CaptureServingSnapshot(model.impl(), Learner::kDefaultSnapshotTopK);
  out.snapshot_resident_bytes = static_cast<double>(snap->resident_bytes);
  return out;
}

// ------------------------------------------------------------ frozen reads
//
// Single-threaded wide reads against a *published* snapshot: the paged
// frozen read models behind every ServingHandle, measured without writer or
// reader contention so the row isolates the paged read kernels themselves
// (the sketch/read_path.h fused loops over the snapshot's pages). The
// checksum is deterministic: it changes only when the answers do.

struct FrozenReadResult {
  double batch_predicts_per_sec = 0.0;
  double batch_estimates_per_sec = 0.0;
  double checksum = 0.0;
};

// Keeps the timed frozen-read loops observable without touching the
// deterministic checksum.
volatile double g_frozen_sink = 0.0;

constexpr double kMinWindowSeconds = 0.12;

FrozenReadResult RunFrozenReads(const ServingConfig& c, const std::vector<Example>& stream,
                                uint32_t dimension) {
  LearnerBuilder b = PaperBuilder(1e-6, 77).SetMethod(c.method).SetWidth(c.width);
  if (c.depth > 0) b.SetDepth(c.depth);
  if (c.heap > 0) b.SetHeapCapacity(c.heap);
  Learner model = BuildOrDie(b.Build());
  model.UpdateBatch(stream);
  Result<ServingHandle> handle = model.AcquireServingHandle();
  if (!handle.ok()) {
    std::fprintf(stderr, "serving handle: %s\n", handle.status().ToString().c_str());
    std::exit(1);
  }
  ServingHandle& h = handle.value();

  const size_t chunk = std::min(kReadChunk, stream.size());
  const std::span<const Example> queries(stream.data(),
                                         std::min<size_t>(stream.size(), 20000));
  std::vector<double> margins(chunk);
  std::vector<uint32_t> keys(chunk);
  std::vector<float> estimates(chunk);

  auto rate = [](size_t ops_per_pass, auto&& workload) {
    size_t passes = 0;
    const auto t0 = std::chrono::steady_clock::now();
    auto t1 = t0;
    do {
      workload();
      ++passes;
      t1 = std::chrono::steady_clock::now();
    } while (Seconds(t0, t1) < kMinWindowSeconds);
    return static_cast<double>(ops_per_pass) * static_cast<double>(passes) /
           Seconds(t0, t1);
  };

  FrozenReadResult out;
  double sink = 0.0;
  out.batch_predicts_per_sec = rate(queries.size(), [&] {
    for (size_t at = 0; at < queries.size(); at += chunk) {
      const size_t n = std::min(chunk, queries.size() - at);
      h.PredictBatch(std::span<const Example>(queries.data() + at, n), margins.data());
      sink += margins[0];
    }
  });
  const size_t estimates_per_pass = 200000;
  out.batch_estimates_per_sec = rate(estimates_per_pass, [&] {
    SplitMix64 ids(99);
    for (size_t at = 0; at < estimates_per_pass; at += chunk) {
      const size_t n = std::min(chunk, estimates_per_pass - at);
      for (size_t i = 0; i < n; ++i) {
        keys[i] = static_cast<uint32_t>(ids.Next() % dimension);
      }
      h.EstimateBatch(std::span<const uint32_t>(keys.data(), n), estimates.data());
      sink += static_cast<double>(estimates[0]);
    }
  });
  g_frozen_sink = g_frozen_sink + sink;

  // Deterministic checksum: one fixed pass, independent of the timing.
  double checksum = 0.0;
  const size_t check = std::min<size_t>(queries.size(), 2000);
  margins.resize(std::max(chunk, check));
  h.PredictBatch(std::span<const Example>(queries.data(), check), margins.data());
  for (size_t i = 0; i < check; ++i) checksum += margins[i];
  SplitMix64 check_ids(99);
  for (size_t i = 0; i < chunk; ++i) {
    keys[i] = static_cast<uint32_t>(check_ids.Next() % dimension);
  }
  h.EstimateBatch(std::span<const uint32_t>(keys.data(), chunk), estimates.data());
  for (size_t i = 0; i < chunk; ++i) checksum += static_cast<double>(estimates[i]);
  out.checksum = checksum;
  return out;
}

}  // namespace
}  // namespace wmsketch::bench

int main(int argc, char** argv) {
  using namespace wmsketch;
  using namespace wmsketch::bench;

  const ClassificationProfile profile = ClassificationProfile::Rcv1Like();
  const int examples = ScaledCount(120000);
  const std::vector<BenchStreamSpec> streams =
      ResolveBenchStreams(argc, argv, profile, examples, 88);

  BenchJson json("serving");
  Banner("Publish cost — copy-on-write paged snapshots at high cadence "
         "(bytes copied per publish vs the full-table copy)");
  PrintRow({"config", "k", "publish_B", "full_B", "gain", "publish_us",
            "resident_B"});
  for (const PublishCostConfig& c : kPublishConfigs) {
    const PublishCostResult res = RunPublishCost(c, streams.front().examples);
    PrintRow({c.label, std::to_string(c.serve_every), Fmt(res.publish_bytes, 0),
              Fmt(res.full_table_bytes, 0), Fmt(res.publish_gain, 1),
              Fmt(res.publish_us, 1), Fmt(res.snapshot_resident_bytes, 0)});
    json.Row()
        .Str("config", c.label)
        .Num("serve_every", static_cast<double>(c.serve_every))
        .Num("publishes", static_cast<double>(res.publishes))
        .Num("publish_bytes", res.publish_bytes)
        .Num("full_table_bytes", res.full_table_bytes)
        .Num("publish_gain", res.publish_gain)
        .Num("publish_us", res.publish_us)
        .Num("snapshot_resident_bytes", res.snapshot_resident_bytes);
  }
  Banner("Frozen reads — single-threaded batched reads on a published snapshot "
         "(the paged serving kernels)");
  PrintRow({"config", "batchpred/s", "batchest/s"});
  for (const BenchStreamSpec& spec : streams) {
    for (const ServingConfig& c : kConfigs) {
      const FrozenReadResult res = RunFrozenReads(c, spec.examples, spec.dimension);
      const std::string label = c.label + spec.suffix + "_frozen";
      PrintRow({label, Fmt(res.batch_predicts_per_sec, 0),
                Fmt(res.batch_estimates_per_sec, 0)});
      json.Row()
          .Str("config", label)
          .Num("batch_predicts_per_sec", res.batch_predicts_per_sec)
          .Num("batch_estimates_per_sec", res.batch_estimates_per_sec)
          .Num("checksum", res.checksum);
    }
  }

  json.WriteIfRequested(argc, argv);
  return 0;
}
