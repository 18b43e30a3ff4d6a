// Workload `serve`: the network serving tier under open-loop load while the
// model keeps training.
//
// An in-process net::ServingServer (2 readers, max_batch 256) on a Unix
// socket serves an AWM-Sketch with an 8 KB budget (the wms_serve default),
// pre-trained in set-up. A writer thread keeps training at a fixed, paced
// rate and publishes every PublishEvery() examples, like `wms_serve
// --train-forever`. One open-loop generator thread sends Poisson arrivals
// over 4 nonblocking connections, framing with EncodeFrame/TryDecodeFrame
// and the net/protocol codecs: mostly single-example predicts, plus fixed
// shares of 16-key estimates and TopK(64). It runs first at a fixed
// reference rate, then up a fixed rate ladder with 4% steps.
//
// This is the only workload where framing, epoll rounds, coalescing,
// snapshot pins and the top-K cache do the work. The writer beside the
// readers makes publishing, page dirtying and cache invalidation compete
// with reads, so a read-side gain that costs writes shows up in
// freshness_p90_ms, and the reverse in req_p99_us.

#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "engine/serving.h"
#include "machine.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/wire.h"
#include "stats.h"
#include "trace.h"
#include "util/memory_cost.h"
#include "workload.h"

namespace perfbench {
namespace {

using wmsketch::Example;
using wmsketch::Learner;
namespace net = wmsketch::net;

constexpr int kConnections = 4;
constexpr int kReaders = 2;
constexpr size_t kMaxBatch = 256;

/// Writer: paced training rate (examples/s), about half the 32k updates/s
/// the AWM writer sustained beside 4 readers in BENCH_serving.json
/// (awm_w256_s256_r4), the same share of recorded capacity as kRefRate.
constexpr double kWriterRate = 16000.0;
/// Publish cadence: `wms_serve --serve-every` defaults to this, ...
constexpr uint64_t kServeEveryDefault = 10000;
/// ... but the reference phase must hold at least this many publishes, so
/// that freshness_p90_ms has 10 samples beyond its p90.
constexpr double kMinPublishes = 100.0;

/// Reference rate (req/s), about half the 95k-106k req/s that closed-loop
/// predict clients reached against the same server on one core in
/// BENCH_net_serving.json; and its share of the run, the ladder getting the
/// rest.
constexpr double kRefRate = 50000.0;
constexpr double kRefShare = 0.4;
/// Ladder: rate_k = kRefRate · kLadderStep^k, kStepSeconds each.
constexpr double kLadderStep = 1.04;
constexpr double kStepSeconds = 0.1;
/// The ladder stops after this many consecutive steps miss the limit; a
/// single miss below capacity is a host stall, not the server's limit.
constexpr int kLadderMisses = 4;

/// Latency limit on the tail percentile for max_rate_rps, and how many
/// limits a step may take to drain after its last send.
constexpr double kLatencyLimitUs = 1000.0;
constexpr double kDrainLimits = 2.0;
/// Generator health: a phase whose p99 lateness exceeds this has invalid
/// latency figures (the generator, not the server, set the pace).
constexpr double kLagBoundUs = 1000.0;

/// Request mix: shares of estimate and top-K requests; the rest are
/// single-example predicts. Chosen, not measured (README.md gives the
/// reasons).
constexpr double kEstimateShare = 0.08;
constexpr double kTopKShare = 0.02;
constexpr size_t kEstimateKeys = 16;
constexpr uint32_t kTopKRequest = 64;
/// Requests of the post-run bit-identity check.
constexpr int kCheckRequests = 200;

enum class Kind : uint8_t { kPredict, kEstimate, kTopK };

int64_t Now() { return trace::NowNs(); }

/// The writer publishes every this many examples: the wms_serve default, or
/// less when that would leave the reference phase of a `seconds` run with
/// fewer than kMinPublishes publishes.
uint64_t PublishEvery(double seconds) {
  const double most = kWriterRate * seconds * kRefShare / kMinPublishes;
  return std::clamp<uint64_t>(static_cast<uint64_t>(most), 1, kServeEveryDefault);
}

/// The kEstimateKeys feature ids an estimate request built from `key` asks for.
std::vector<uint32_t> EstimateKeys(uint32_t key, uint32_t dimension) {
  std::vector<uint32_t> keys;
  for (size_t k = 0; k < kEstimateKeys; ++k) {
    keys.push_back(static_cast<uint32_t>((key + 37 * k) % dimension));
  }
  return keys;
}

struct Conn {
  int fd = -1;
  std::string out;
  size_t out_off = 0;
  std::string in;
  size_t in_off = 0;
  std::deque<size_t> pending;  // request indices, in send order
};

wmsketch::Result<int> ConnectUnix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    return wmsketch::Status::InvalidArgument("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) return wmsketch::Status::IOError("socket failed");
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 &&
      errno != EINPROGRESS && errno != EAGAIN) {
    ::close(fd);
    return wmsketch::Status::IOError(std::string("connect failed: ") + std::strerror(errno));
  }
  return fd;
}

/// What one open-loop phase measured.
struct PhaseOut {
  std::vector<double> latency_us;
  std::vector<double> service_us;
  std::vector<double> lag_us;
  size_t sent = 0;
  /// From the last send to the last response: long when a backlog built up.
  double drain_us = 0.0;
  uint64_t errors = 0;
  /// (time, version) each time a response carried a newer version.
  std::vector<std::pair<int64_t, uint64_t>> version_seen;
};

/// The generator: one thread, kConnections nonblocking sockets.
class Generator {
 public:
  Generator(std::vector<int> fds, const std::vector<Example>& stream, uint32_t dimension,
            uint64_t seed)
      : stream_(stream), dimension_(dimension), rng_(seed) {
    for (const int fd : fds) {
      Conn c;
      c.fd = fd;
      conns_.push_back(std::move(c));
    }
    epfd_ = ::epoll_create1(0);
    for (size_t i = 0; i < conns_.size(); ++i) {
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u64 = i;
      ::epoll_ctl(epfd_, EPOLL_CTL_ADD, conns_[i].fd, &ev);
    }
  }
  ~Generator() {
    for (Conn& c : conns_) ::close(c.fd);
    if (epfd_ >= 0) ::close(epfd_);
  }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  /// Runs one phase: sends the Poisson schedule for `rate` over `seconds`,
  /// then waits for every response (at most kDrainSeconds).
  PhaseOut Run(double rate, double seconds) {
    PhaseOut out;
    std::vector<int64_t> due = PoissonSchedule(0, rate, static_cast<int64_t>(seconds * 1e9), rng_());
    kinds_.assign(due.size(), Kind::kPredict);
    std::uniform_real_distribution<double> u(0.0, 1.0);
    for (Kind& k : kinds_) {
      const double x = u(rng_);
      k = x < kTopKShare ? Kind::kTopK : x < kTopKShare + kEstimateShare ? Kind::kEstimate : Kind::kPredict;
    }
    // The schedule starts once it is built, 1 ms from now.
    const int64_t start = Now() + 1000000;
    for (int64_t& d : due) d += start;
    OpenLoopLedger ledger(std::move(due));
    uint64_t max_version = 0;
    size_t next = 0;
    size_t outstanding = 0;
    int64_t last_send = 0;
    const int64_t drain_deadline = start + static_cast<int64_t>((seconds + kDrainSeconds) * 1e9);
    trace::Root root;
    while (next < ledger.size() || outstanding > 0) {
      int64_t now = Now();
      if (now > drain_deadline) {
        out.errors += outstanding;
        break;
      }
      // Issue every request that has fallen due.
      while (next < ledger.size() && ledger.due(next) <= now) {
        Conn& c = conns_[next % conns_.size()];
        const int64_t e0 = Now();
        AppendRequest(kinds_[next], ExampleFor(next), KeyFor(next), &c.out);
        const int64_t e1 = Now();
        trace::Record("net.codec", e0, e1, next + 1);
        ledger.Sent(next, e1);
        c.pending.push_back(next);
        ++next;
        ++outstanding;
        now = e1;
      }
      if (next == ledger.size() && out.sent == 0) {
        out.sent = next;
        last_send = now;
      }
      for (Conn& c : conns_) {
        if (c.out_off < c.out.size()) Flush(c, &out);
      }
      epoll_event evs[kConnections];
      const int n = ::epoll_wait(epfd_, evs, kConnections, 0);
      for (int i = 0; i < n; ++i) {
        Conn& c = conns_[evs[i].data.u64];
        Receive(c, ledger, &outstanding, &max_version, &out);
      }
    }
    if (out.sent == 0) out.sent = next;
    out.drain_us = static_cast<double>(Now() - last_send) * 1e-3;
    out.latency_us = ledger.LatenciesUs();
    out.service_us = ledger.ServiceUs();
    out.lag_us = ledger.LagUs();
    return out;
  }

  /// Sends `kind` on connection 0 and waits for its decoded response.
  wmsketch::Result<net::TypedFrame> Call(Kind kind, size_t example, uint32_t key) {
    Conn& c = conns_[0];
    AppendRequest(kind, example, key, &c.out);
    PhaseOut scratch;
    const int64_t deadline = Now() + 2000000000;
    while (c.out_off < c.out.size()) {
      Flush(c, &scratch);
      if (Now() > deadline) return wmsketch::Status::IOError("send timed out");
    }
    while (Now() < deadline) {
      char buf[65536];
      const ssize_t got = ::recv(c.fd, buf, sizeof(buf), 0);
      if (got > 0) c.in.append(buf, static_cast<size_t>(got));
      net::TypedFrame f;
      size_t consumed = 0;
      const wmsketch::Status st =
          net::TryDecodeFrame(std::string_view(c.in).substr(c.in_off), net::kMinMsgType,
                              net::kMaxMsgType, &f, &consumed);
      if (!st.ok()) return st;
      if (consumed > 0) {
        c.in_off += consumed;
        return f;
      }
      if (got == 0) return wmsketch::Status::IOError("connection closed");
    }
    return wmsketch::Status::IOError("response timed out");
  }

  /// The stream example and the estimate key request `i` uses.
  size_t ExampleFor(size_t i) const { return (i * 7919) % stream_.size(); }
  uint32_t KeyFor(size_t i) const { return static_cast<uint32_t>((i * 104729) % dimension_); }

 private:
  static constexpr double kDrainSeconds = 5.0;

  /// Appends one framed request: a predict of stream example `example`, an
  /// estimate of EstimateKeys(key), or a TopK(kTopKRequest).
  void AppendRequest(Kind kind, size_t example, uint32_t key, std::string* out) {
    switch (kind) {
      case Kind::kPredict:
        predict_.examples.assign(1, stream_[example]);
        out->append(net::EncodeFrame(static_cast<uint8_t>(net::MsgType::kPredictRequest),
                                     net::EncodePredictRequest(predict_)));
        break;
      case Kind::kEstimate:
        estimate_.features = EstimateKeys(key, dimension_);
        out->append(net::EncodeFrame(static_cast<uint8_t>(net::MsgType::kEstimateRequest),
                                     net::EncodeEstimateRequest(estimate_)));
        break;
      case Kind::kTopK:
        out->append(net::EncodeFrame(static_cast<uint8_t>(net::MsgType::kTopKRequest),
                                     net::EncodeTopKRequest({kTopKRequest})));
        break;
    }
  }

  void Flush(Conn& c, PhaseOut* out) {
    const int64_t s0 = Now();
    const ssize_t w = ::send(c.fd, c.out.data() + c.out_off, c.out.size() - c.out_off,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (w > 0) {
      trace::Record("net.syscall", s0, Now());
      c.out_off += static_cast<size_t>(w);
      if (c.out_off == c.out.size()) {
        c.out.clear();
        c.out_off = 0;
      }
    } else if (w < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
      ++out->errors;
    }
  }

  void Receive(Conn& c, OpenLoopLedger& ledger, size_t* outstanding, uint64_t* max_version,
               PhaseOut* out) {
    char buf[65536];
    while (true) {
      const int64_t r0 = Now();
      const ssize_t got = ::recv(c.fd, buf, sizeof(buf), MSG_DONTWAIT);
      if (got <= 0) {
        if (got == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) ++out->errors;
        break;
      }
      trace::Record("net.syscall", r0, Now());
      c.in.append(buf, static_cast<size_t>(got));
      if (static_cast<size_t>(got) < sizeof(buf)) break;
    }
    while (true) {
      const int64_t d0 = Now();
      net::TypedFrame frame;
      size_t consumed = 0;
      const wmsketch::Status st = net::TryDecodeFrame(
          std::string_view(c.in).substr(c.in_off), net::kMinMsgType, net::kMaxMsgType, &frame,
          &consumed);
      if (!st.ok()) {
        // Framing is lost: every request still pending here has failed.
        out->errors += c.pending.size();
        *outstanding -= c.pending.size();
        c.pending.clear();
        c.in.clear();
        c.in_off = 0;
        return;
      }
      if (consumed == 0) break;
      c.in_off += consumed;
      if (c.pending.empty()) {
        ++out->errors;
        continue;
      }
      const size_t id = c.pending.front();
      c.pending.pop_front();
      --*outstanding;
      uint64_t version = 0;
      bool ok = false;
      switch (static_cast<net::MsgType>(frame.type)) {
        case net::MsgType::kPredictResponse: {
          auto r = net::DecodePredictResponse(frame.payload);
          ok = r.ok() && kinds_[id] == Kind::kPredict && r.value().margins.size() == 1;
          if (r.ok()) version = r.value().version;
          break;
        }
        case net::MsgType::kEstimateResponse: {
          auto r = net::DecodeEstimateResponse(frame.payload);
          ok = r.ok() && kinds_[id] == Kind::kEstimate &&
               r.value().estimates.size() == kEstimateKeys;
          if (r.ok()) version = r.value().version;
          break;
        }
        case net::MsgType::kTopKResponse: {
          auto r = net::DecodeTopKResponse(frame.payload);
          ok = r.ok() && kinds_[id] == Kind::kTopK;
          if (r.ok()) version = r.value().version;
          break;
        }
        default:
          break;
      }
      const int64_t d1 = Now();
      trace::Record("net.codec", d0, d1, id + 1);
      if (!ok) ++out->errors;
      ledger.Completed(id, d1);
      if (version > *max_version) {
        *max_version = version;
        out->version_seen.emplace_back(d1, version);
      }
    }
    if (c.in_off == c.in.size()) {
      c.in.clear();
      c.in_off = 0;
    }
  }

  const std::vector<Example>& stream_;
  uint32_t dimension_;
  std::mt19937_64 rng_;
  std::vector<Conn> conns_;
  int epfd_ = -1;
  std::vector<Kind> kinds_;
  net::PredictRequest predict_;
  net::EstimateRequest estimate_;
};

/// One publish the writer made: its version and the due time of the last
/// example it contains.
struct Publish {
  uint64_t version = 0;
  int64_t last_due_ns = 0;
};

/// The paced writer: trains stream examples at kWriterRate from `start_ns`
/// until `quota` examples, publishing every `publish_every`; once `unpaced`
/// is set it trains the rest of the quota at full speed.
class Writer {
 public:
  Writer(Learner& model, wmsketch::ServingHandle handle, const std::vector<Example>& stream,
         size_t quota, uint64_t publish_every)
      : model_(model),
        handle_(std::move(handle)),
        stream_(stream),
        quota_(quota),
        publish_every_(publish_every) {}

  void Run(int64_t start_ns) {
    PinSelf(CpuForSlot(1));
    // Tracing is switched on for one phase of the run; the writer's root
    // span covers exactly the stretch during which it is on.
    std::optional<trace::Root> root;
    const uint64_t copied0 = model_.impl().publish_stats().copied_bytes;
    size_t done = 0;
    while (done < quota_) {
      if (trace::Enabled() != root.has_value()) {
        if (root.has_value()) {
          root.reset();
        } else {
          root.emplace();
        }
      }
      // One publish interval at a time: the batch starts once its last
      // example is due, so the writer wakes once per publish.
      const size_t batch_end = std::min(quota_, (done / publish_every_ + 1) * publish_every_);
      const int64_t last_due =
          start_ns + static_cast<int64_t>(static_cast<double>(batch_end - 1) / kWriterRate * 1e9);
      const bool paced = !unpaced_.load(std::memory_order_acquire);
      if (paced && Now() < last_due) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(last_due - Now()));
        continue;  // re-check: tracing or pacing may have changed meanwhile
      }
      while (done < batch_end) {
        const size_t at = (stream_.size() + done) % stream_.size();  // pre-training took one pass
        const size_t n = std::min(batch_end - done, stream_.size() - at);
        trace::Scope span("api.update.awm");
        model_.UpdateBatch(std::span<const Example>(stream_.data() + at, n));
        done += n;
      }
      {
        trace::Scope span("engine.publish");
        model_.PublishServingSnapshot();
      }
      ++publishes_;
      if (paced) {
        published_.push_back({handle_.Refresh(), last_due});
        paced_done_.store(done, std::memory_order_relaxed);
      }
    }
    publish_bytes_ = model_.impl().publish_stats().copied_bytes - copied0;
  }

  void Unpace() { unpaced_.store(true, std::memory_order_release); }
  const std::vector<Publish>& published() const { return published_; }
  size_t paced_done() const { return paced_done_.load(std::memory_order_relaxed); }
  uint64_t publishes() const { return publishes_; }
  uint64_t publish_bytes() const { return publish_bytes_; }

 private:
  Learner& model_;
  wmsketch::ServingHandle handle_;
  const std::vector<Example>& stream_;
  size_t quota_;
  uint64_t publish_every_;
  std::atomic<bool> unpaced_{false};
  std::vector<Publish> published_;
  std::atomic<size_t> paced_done_{0};
  uint64_t publishes_ = 0;
  uint64_t publish_bytes_ = 0;
};

/// Freshness (ms) of every publish made during [from_ns, to_ns): due time of
/// its last example to the first response carrying it or a later version.
std::vector<double> Freshness(const std::vector<Publish>& published,
                              const std::vector<std::pair<int64_t, uint64_t>>& seen,
                              int64_t from_ns, int64_t to_ns) {
  std::vector<double> out;
  size_t s = 0;
  for (const Publish& p : published) {
    if (p.last_due_ns < from_ns || p.last_due_ns >= to_ns) continue;
    while (s < seen.size() && seen[s].second < p.version) ++s;
    if (s == seen.size()) break;
    out.push_back(static_cast<double>(seen[s].first - p.last_due_ns) * 1e-6);
  }
  return out;
}

struct Served {
  Stream stream;
  std::unique_ptr<Learner> model;
  std::unique_ptr<net::ServingServer> server;
  /// The server's threads (readers and acceptor).
  std::vector<pid_t> server_tids;
  std::unique_ptr<wmsketch::ServingHandle> checker;
  std::unique_ptr<wmsketch::ServingHandle> writer_handle;
  std::vector<int> fds;
  std::vector<float> w_star;
};

wmsketch::Status SetUp(const RunConfig& cfg, const std::string& socket, size_t quota,
                       Served* s) {
  WMS_ASSIGN_OR_RETURN(s->stream, MakeStream(cfg.root, cfg.seed, kStreamExamples, false));
  WMS_ASSIGN_OR_RETURN(Learner model, PaperBuilder()
                                          .SetMethod(wmsketch::Method::kAwmSketch)
                                          .SetBudgetBytes(wmsketch::KiB(8))
                                          .ServeEvery(0)
                                          .Build());
  s->model = std::make_unique<Learner>(std::move(model));
  s->model->UpdateBatch(s->stream.parsed);
  WMS_ASSIGN_OR_RETURN(wmsketch::ServingHandle checker, s->model->AcquireServingHandle());
  s->checker = std::make_unique<wmsketch::ServingHandle>(std::move(checker));
  WMS_ASSIGN_OR_RETURN(wmsketch::ServingHandle wh, s->model->AcquireServingHandle());
  s->writer_handle = std::make_unique<wmsketch::ServingHandle>(std::move(wh));

  // The readers take slots 2 and 3; the acceptor, idle after the
  // connects, shares slot 3.
  net::ServerOptions options;
  options.unix_path = socket;
  options.readers = kReaders;
  options.max_batch = kMaxBatch;
  Learner* m = s->model.get();
  auto started = SpawnPinned(
      {CpuForSlot(2), CpuForSlot(3)}, CpuForSlot(0),
      [&] { return net::ServingServer::Start(options, [m] { return m->AcquireServingHandle(); }); },
      &s->server_tids);
  if (!started.ok()) return started.status();
  s->server = std::move(started).value();
  for (int c = 0; c < kConnections; ++c) {
    WMS_ASSIGN_OR_RETURN(const int fd, ConnectUnix(socket));
    s->fds.push_back(fd);
  }
  s->w_star = DenseReference(s->stream.parsed, s->stream.parsed.size() + quota,
                             s->stream.dimension);
  return wmsketch::Status::OK();
}

void TearDown(Served* s) {
  if (s->server != nullptr) s->server->Stop();
  for (const int fd : s->fds) ::close(fd);
  s->fds.clear();
}

bool SameBits(const void* a, const void* b, size_t n) { return std::memcmp(a, b, n) == 0; }

/// After the writer stopped: responses over the wire must be bit-identical
/// to direct ServingHandle calls at the same version.
void CheckResponses(Generator& gen, Served& s, RunResult* r) {
  const uint64_t version = s.checker->Refresh();
  int mismatches = 0;
  for (int i = 0; i < kCheckRequests; ++i) {
    const Kind kind = i % 20 == 0 ? Kind::kTopK : i % 5 == 0 ? Kind::kEstimate : Kind::kPredict;
    const size_t example = gen.ExampleFor(static_cast<size_t>(i) * 13);
    const uint32_t key = gen.KeyFor(static_cast<size_t>(i) * 13);
    wmsketch::Result<net::TypedFrame> f = gen.Call(kind, example, key);
    ++r->attempted;
    if (!f.ok()) {
      ++mismatches;
      continue;
    }
    bool same = false;
    if (kind == Kind::kPredict) {
      auto resp = net::DecodePredictResponse(f.value().payload);
      double local = 0.0;
      s.checker->PredictBatch(std::span<const Example>(&s.stream.parsed[example], 1), &local);
      same = resp.ok() && resp.value().version == version && resp.value().margins.size() == 1 &&
             SameBits(&resp.value().margins[0], &local, sizeof(double));
    } else if (kind == Kind::kEstimate) {
      auto resp = net::DecodeEstimateResponse(f.value().payload);
      const std::vector<uint32_t> keys = EstimateKeys(key, s.stream.dimension);
      std::vector<float> local(kEstimateKeys);
      s.checker->EstimateBatch(keys, local.data());
      same = resp.ok() && resp.value().version == version &&
             resp.value().estimates.size() == kEstimateKeys &&
             SameBits(resp.value().estimates.data(), local.data(), kEstimateKeys * sizeof(float));
    } else {
      auto resp = net::DecodeTopKResponse(f.value().payload);
      same = resp.ok() && resp.value().version == version &&
             SameTopK(resp.value().entries, s.checker->TopK(kTopKRequest));
    }
    if (!same) ++mismatches;
  }
  r->failed += static_cast<uint64_t>(mismatches);
  if (mismatches > 0) {
    r->mismatches.push_back("serve: " + std::to_string(mismatches) + " of " +
                            std::to_string(kCheckRequests) +
                            " responses differ from direct ServingHandle calls");
  }
}

struct LadderOut {
  double max_rate = 0.0;
  std::vector<std::string> steps;
};

}  // namespace

RunResult RunServe(const RunConfig& cfg) {
  RunResult r;
  PinSelf(CpuForSlot(0));
  const std::string socket = cfg.work_dir + "/serve-" + std::to_string(::getpid()) + ".sock";
  const size_t quota = static_cast<size_t>(kWriterRate * cfg.seconds * 1.2);

  Served s;
  wmsketch::Status setup_status;
  r.metrics["setup_s"] = TimedSetup([&] {
    TearDown(&s);
    s = Served();
    setup_status = SetUp(cfg, socket, quota, &s);
  });
  r.Check(setup_status.ok(), "setup: " + setup_status.ToString());
  if (!setup_status.ok()) {
    TearDown(&s);
    return r;
  }

  Generator gen(s.fds, s.stream.parsed, s.stream.dimension, cfg.seed * 7919 + 17);
  s.fds.clear();  // owned by the generator now
  const uint64_t publish_every = PublishEvery(cfg.seconds);
  Writer writer(*s.model, std::move(*s.writer_handle), s.stream.parsed, quota, publish_every);
  const int64_t writer_start = Now();
  // Declared after everything the writer touches, so it is joined first
  // (also when leaving early).
  std::jthread writer_thread([&] { writer.Run(writer_start); });

  const double ref_seconds = cfg.trace ? cfg.seconds / 2 : cfg.seconds * kRefShare;
  const auto server_cpu = [&] {
    double sum = 0.0;
    for (const pid_t tid : s.server_tids) sum += TaskCpuSeconds(tid);
    return sum;
  };
  const double server_cpu0 = server_cpu();
  // Trace mode: an untraced then a traced reference phase, no ladder.
  PhaseOut ref = gen.Run(kRefRate, ref_seconds);
  const double ref_server_cpu = server_cpu() - server_cpu0;
  PhaseOut traced;
  const net::ServerStats stats1 = s.server->stats();
  if (cfg.trace) {
    trace::SetEnabled(true);
    traced = gen.Run(kRefRate, ref_seconds);
    trace::SetEnabled(false);
  }
  const net::ServerStats stats2 = s.server->stats();
  // The ladder overloads the server on purpose and its connection buffers
  // then grow with the backlog, so peak RSS is taken before the ladder.
  r.metrics["peak_rss_mb"] = PeakRssMb();
  const double writer_eps = static_cast<double>(writer.paced_done()) /
                            (static_cast<double>(Now() - writer_start) * 1e-9);

  LadderOut ladder;
  const int64_t ladder_end = Now() + static_cast<int64_t>(cfg.seconds * (1 - kRefShare) * 1e9);
  if (!cfg.trace) {
    int failed_steps = 0;
    for (double rate = kRefRate * kLadderStep;
         Now() < ladder_end && failed_steps < kLadderMisses; rate *= kLadderStep) {
      PhaseOut step = gen.Run(rate, kStepSeconds);
      const Tail lat = Summarize(step.latency_us, 99.0);
      const Tail lag = Summarize(step.lag_us, 99.0);
      // A backlog that grew during the step takes longer than the limit
      // to drain once sending stops.
      const bool pass = lat.tail <= kLatencyLimitUs && step.errors == 0 &&
                        step.drain_us <= kDrainLimits * kLatencyLimitUs;
      ladder.steps.push_back(std::to_string(static_cast<int>(rate)) + ":" +
                             (lag.tail > kLagBoundUs ? "lag" : pass ? "ok" : "miss") + "(p" +
                             std::to_string(static_cast<int>(lat.tail)) + ")");
      r.attempted += step.sent;
      if (lag.tail > kLagBoundUs) break;  // the generator set the pace, not the server
      if (pass) {
        ladder.max_rate = rate;
        failed_steps = 0;
      } else {
        ++failed_steps;
      }
    }
  }

  writer.Unpace();
  writer_thread.join();
  CheckResponses(gen, s, &r);

  const Tail lat = ReportTail("reference phase (us), " +
                                  std::to_string(static_cast<int>(kRefRate)) +
                                  " req/s open loop for " + std::to_string(ref_seconds) + " s",
                              ref.latency_us, 99.0, kWindowP99, &r);
  const Tail lag = ReportTail("generator lateness (us)", ref.lag_us, 99.0, kWindowP99, &r);
  const int64_t ref_from = writer_start;
  const int64_t ref_to = writer_start + static_cast<int64_t>(ref_seconds * 1e9);
  const Tail fresh =
      ReportTail("freshness (ms), publish every " + std::to_string(publish_every) + " examples (" +
                     std::to_string(writer.publishes()) + " publishes in the run)",
                 Freshness(writer.published(), ref.version_seen, ref_from, ref_to), 90.0,
                 kWindowP90, &r);
  r.attempted += ref.sent + traced.sent;
  r.failed += ref.errors + traced.errors;
  r.Check(ref.latency_us.size() == ref.sent, "serve: reference phase left requests unanswered");
  if (lag.tail > kLagBoundUs) {
    // The generator, not the server, set the pace: the latency figures of
    // this run are invalid rather than slow. The bounded metrics do not
    // depend on them.
    r.notes.push_back("INVALID latency figures: generator lateness p" + std::to_string(lag.tail_q) +
                      " " + std::to_string(lag.tail) + " us exceeds the " +
                      std::to_string(kLagBoundUs) + " us bound");
  }

  r.metrics["ingest_eps"] = writer_eps;
  // Not scaled by the host calibration: the readers' cost per request did
  // not follow the calibration kernel's (README.md).
  r.metrics["ops_per_cpu_s"] = static_cast<double>(ref.latency_us.size()) / ref_server_cpu;
  r.notes.push_back("server threads: " + std::to_string(ref_server_cpu) + " cpu-s for " +
                    std::to_string(ref.latency_us.size()) + " reference-phase requests");
  r.metrics["topk_rel_err"] = RelErr(s.model->TopK(kRelErrK), s.w_star);
  r.metrics["req_p50_us"] = lat.p50;
  r.metrics["req_p99_us"] = lat.tail;
  r.metrics["max_rate_rps"] = ladder.max_rate;
  r.metrics["freshness_p90_ms"] = fresh.tail;
  std::string steps;
  for (const std::string& st : ladder.steps) steps += " " + st;
  r.notes.push_back("ladder (limit p99 <= " + std::to_string(static_cast<int>(kLatencyLimitUs)) +
                    " us):" + steps);

  if (cfg.trace) {
    const TraceReport t(1);
    const double requests = static_cast<double>(std::max<size_t>(1, traced.latency_us.size()));
    const double codec_us = t.Self("net.codec") / requests * 1e6;
    const double syscall_us = t.Self("net.syscall") / requests * 1e6;
    const double service_us = Median(traced.service_us);
    r.metrics["net.client_codec_us"] = codec_us;
    r.metrics["net.client_syscall_us"] = syscall_us;
    r.metrics["net.server_us"] = service_us - codec_us - syscall_us;
    const double batches = static_cast<double>(stats2.batches_dispatched - stats1.batches_dispatched);
    r.metrics["net.coalesce_mean"] =
        batches > 0 ? static_cast<double>(stats2.requests_batched - stats1.requests_batched) / batches : 0.0;
    const double hits = static_cast<double>(stats2.topk_cache_hits - stats1.topk_cache_hits);
    const double misses = static_cast<double>(stats2.topk_cache_misses - stats1.topk_cache_misses);
    r.metrics["net.topk_hit_rate"] = hits + misses > 0 ? hits / (hits + misses) : 0.0;
    r.metrics["net.topk_invalidations"] =
        static_cast<double>(stats2.topk_cache_invalidations - stats1.topk_cache_invalidations);
    r.metrics["net.errors"] = static_cast<double>(
        traced.errors + (stats2.frames_corrupt - stats1.frames_corrupt) +
        (stats2.requests_rejected - stats1.requests_rejected) +
        (stats2.connections_dropped - stats1.connections_dropped));
    r.metrics["gen.lag_p99_us"] = Summarize(traced.lag_us, 99.0).tail;
    r.metrics["api.update_s.awm"] = t.Self("api.update.awm");
    r.metrics["engine.publish_s"] = t.Self("engine.publish");
    r.metrics["engine.publishes"] = t.Count("engine.publish");
    r.metrics["engine.publish_p99_us"] = Summarize(t.DurationsUs("engine.publish"), 99.0).tail;
    r.metrics["engine.publish_bytes"] =
        writer.publishes() == 0 ? 0.0 : static_cast<double>(writer.publish_bytes()) / writer.publishes();
    t.Finish(Median(traced.latency_us) / lat.p50 - 1.0, cfg.work_dir + "/trace_serve.tsv", &r);
  }
  TearDown(&s);
  ::unlink(socket.c_str());
  return r;
}

}  // namespace perfbench
