// Unit tests of the benchmark's own arithmetic: the percentile rule,
// open-loop lateness accounting, self times over nested spans, and the
// check that stream text parses back to the examples it was made from.
//
//   python3 perfbench/run.py --selftest

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>
#include <vector>

#include "stats.h"
#include "stream/libsvm_io.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(size_t n) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

size_t Beyond(const std::vector<double>& v, double x) {
  return static_cast<size_t>(std::count_if(v.begin(), v.end(), [x](double s) { return s > x; }));
}

TEST(PercentileRule, ReportsTheWantedPercentileWhenTheSampleSupportsIt) {
  EXPECT_DOUBLE_EQ(SupportedPercentile(1000, 99.0), 99.0);
  EXPECT_DOUBLE_EQ(SupportedPercentile(5000, 99.0), 99.0);
  std::vector<double> v = OneTo(1000);
  EXPECT_DOUBLE_EQ(PercentileOf(v, 99.0), 990.0);
  EXPECT_EQ(Beyond(v, 990.0), 10u);
}

TEST(PercentileRule, FallsBackToTheHighestPercentileWithTenSamplesBeyond) {
  EXPECT_DOUBLE_EQ(SupportedPercentile(500, 99.0), 98.0);
  EXPECT_DOUBLE_EQ(SupportedPercentile(100, 90.0), 90.0);
  EXPECT_DOUBLE_EQ(SupportedPercentile(50, 90.0), 80.0);
  for (size_t n = 21; n <= 3000; n += 7) {
    const double q = SupportedPercentile(n, 99.0);
    std::vector<double> v = OneTo(n);
    const double at = PercentileOf(v, q);
    EXPECT_GE(Beyond(v, at), kMinTailSamples) << "n=" << n;
    if (q < 99.0) {
      // Any higher percentile leaves fewer than ten samples beyond it.
      std::vector<double> w = OneTo(n);
      EXPECT_LT(Beyond(w, PercentileOf(w, q + 100.0 / static_cast<double>(n))),
                kMinTailSamples)
          << "n=" << n;
    }
  }
}

TEST(PercentileRule, TinySamplesReportTheMedian) {
  EXPECT_DOUBLE_EQ(SupportedPercentile(10, 99.0), 50.0);
  EXPECT_DOUBLE_EQ(SupportedPercentile(0, 99.0), 50.0);
  const Tail t = Summarize(OneTo(9), 99.0);
  EXPECT_EQ(t.n, 9u);
  EXPECT_DOUBLE_EQ(t.tail_q, 50.0);
  EXPECT_DOUBLE_EQ(t.p50, 5.0);
}

TEST(PercentileRule, SummarizeStatesThePercentileAndCount) {
  const Tail t = Summarize(OneTo(200), 99.0);
  EXPECT_EQ(t.n, 200u);
  EXPECT_DOUBLE_EQ(t.tail_q, 95.0);
  EXPECT_DOUBLE_EQ(t.tail, 190.0);
  EXPECT_DOUBLE_EQ(t.p50, 100.0);
}

TEST(PercentileRule, WindowedTailIgnoresStallsInAFewWindows) {
  // Five windows of 1000 samples; windows 1 and 3 hold 60-sample stalls,
  // more than 1% of all samples.
  std::vector<double> v;
  for (int w = 0; w < 5; ++w) {
    for (int i = 0; i < 1000; ++i) v.push_back(w % 2 == 1 && i < 60 ? 5000.0 : 10.0 + i % 100);
  }
  const Tail windowed = WindowedTail(v, 99.0, kWindowP99);
  EXPECT_EQ(windowed.windows, 5u);
  EXPECT_DOUBLE_EQ(windowed.tail_q, 99.0);
  EXPECT_DOUBLE_EQ(windowed.tail, 108.0);
  EXPECT_DOUBLE_EQ(windowed.p50, 59.0);
  EXPECT_DOUBLE_EQ(Summarize(v, 99.0).tail, 5000.0);
  // A load every window carries moves the windowed tail.
  std::vector<double> loaded = v;
  for (double& x : loaded) x += 1000.0;
  EXPECT_DOUBLE_EQ(WindowedTail(loaded, 99.0, kWindowP99).tail, 1108.0);
  EXPECT_DOUBLE_EQ(WindowedTail(loaded, 99.0, kWindowP99).p50, 1059.0);
  // The same stall in a single pooled window sets its p99.
  std::vector<double> one(v.begin() + 1000, v.begin() + 2000);
  EXPECT_DOUBLE_EQ(WindowedTail(one, 99.0, kWindowP99).tail, 5000.0);
  // Fewer than two windows' worth is the plain summary.
  EXPECT_EQ(WindowedTail(one, 99.0, kWindowP99).windows, 1u);
}

// A generator that stalls cannot send the requests that fall due during
// the stall; timed from their due times they are late by the stall, even
// though the server answers each one in 20 µs once it arrives.
TEST(OpenLoop, AStallMakesLaterRequestsLateFromTheirDueTimes) {
  constexpr int64_t kUs = 1000;
  std::vector<int64_t> due;
  for (int64_t i = 0; i < 100; ++i) due.push_back(i * 100 * kUs);
  OpenLoopLedger ledger(due);
  const int64_t stall_from = 1000 * kUs, stall_to = 3000 * kUs;
  int64_t server_free = 0;
  for (size_t i = 0; i < ledger.size(); ++i) {
    int64_t sent = ledger.due(i);
    if (sent >= stall_from && sent < stall_to) sent = stall_to;
    ledger.Sent(i, sent);
    const int64_t start = std::max(sent, server_free);
    server_free = start + 20 * kUs;
    ledger.Completed(i, server_free);
  }
  const std::vector<double> lat = ledger.LatenciesUs();
  const std::vector<double> service = ledger.ServiceUs();
  const std::vector<double> lag = ledger.LagUs();
  ASSERT_EQ(lat.size(), 100u);
  EXPECT_DOUBLE_EQ(lat[5], 20.0);
  // Request 10 fell due as the stall began: 2000 µs late plus its service.
  EXPECT_DOUBLE_EQ(lag[10], 2000.0);
  EXPECT_DOUBLE_EQ(lat[10], 2020.0);
  // The twenty stalled requests arrive together and queue behind each other.
  EXPECT_DOUBLE_EQ(lat[29], 3000.0 - 2900.0 + 20.0 * 20);
  // A closed-loop timer, started at the send, hides the stall.
  EXPECT_DOUBLE_EQ(service[10], 20.0);
  EXPECT_GT(lat[10], 100.0 * service[10]);
  // After the backlog clears, requests are on time again.
  EXPECT_DOUBLE_EQ(lat[40], 20.0);
  EXPECT_DOUBLE_EQ(lag[40], 0.0);
  std::vector<double> l = lat;
  EXPECT_GT(PercentileOf(l, 90.0), 1000.0);
}

TEST(OpenLoop, UnansweredRequestsHaveNoLatency) {
  OpenLoopLedger ledger({0, 10, 20});
  ledger.Sent(0, 0);
  ledger.Sent(1, 15);
  ledger.Completed(0, 5);
  EXPECT_EQ(ledger.LatenciesUs().size(), 1u);
  EXPECT_EQ(ledger.LagUs().size(), 2u);
}

TEST(OpenLoop, PoissonScheduleIsSeededAndHasTheRequestedRate) {
  const std::vector<int64_t> a = PoissonSchedule(5, 20000.0, 1000000000, 7);
  const std::vector<int64_t> b = PoissonSchedule(5, 20000.0, 1000000000, 7);
  const std::vector<int64_t> c = PoissonSchedule(5, 20000.0, 1000000000, 8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NEAR(static_cast<double>(a.size()), 20000.0, 600.0);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_GE(a.front(), 5);
  EXPECT_LT(a.back(), 5 + 1000000000);
}

trace::Span MakeSpan(const char* layer, int64_t start, int64_t end, int32_t parent) {
  trace::Span s;
  s.layer = layer;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

// Self time = span duration minus the union of its children, clipped to it;
// totals sum over threads by layer.
TEST(SelfTime, NestedSpansOnSeveralThreads) {
  std::vector<std::vector<trace::Span>> threads(3);
  // Thread 0: other[0,100] ⊃ update[10,40] ⊃ stream[15,25]; publish[50,70].
  threads[0] = {MakeSpan("other", 0, 100, -1), MakeSpan("update", 10, 40, 0),
                MakeSpan("stream", 15, 25, 1), MakeSpan("publish", 50, 70, 0)};
  // Thread 1: overlapping children count once; a child running past its
  // parent is clipped to the parent.
  threads[1] = {MakeSpan("other", 0, 50, -1), MakeSpan("update", 10, 30, 0),
                MakeSpan("update", 20, 40, 0), MakeSpan("publish", 45, 60, 0)};
  // Thread 2: a root-level leaf.
  threads[2] = {MakeSpan("stream", 0, 30, -1)};

  const trace::LayerTotals t = trace::SelfTimes(threads);
  EXPECT_NEAR(t.self_s.at("other"), (100 - 30 - 20 + 50 - 30 - 5) * 1e-9, 1e-15);
  EXPECT_NEAR(t.self_s.at("update"), (30 - 10 + 20 + 20) * 1e-9, 1e-15);
  EXPECT_NEAR(t.self_s.at("stream"), (10 + 30) * 1e-9, 1e-15);
  EXPECT_NEAR(t.self_s.at("publish"), (20 + 15) * 1e-9, 1e-15);
  EXPECT_EQ(t.count.at("update"), 3u);
  EXPECT_EQ(t.count.at("stream"), 2u);
  EXPECT_NEAR(t.root_s, (100 + 50 + 30) * 1e-9, 1e-15);
}

void Spin(int64_t ns) {
  const int64_t until = trace::NowNs() + ns;
  while (trace::NowNs() < until) {
  }
}

// Spans recorded for real on three threads: the self times of all layers
// add back up to the wall time the Root scopes clocked.
TEST(SelfTime, RecordedSpansReconcileWithWallTime) {
  (void)trace::Drain();
  trace::SetEnabled(true);
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([t] {
      trace::Root root;
      for (int i = 0; i < 20; ++i) {
        trace::Scope outer("api");
        Spin(20000);
        {
          trace::Scope inner("engine");
          Spin(10000 * (t + 1));
        }
        const int64_t s0 = trace::NowNs();
        Spin(5000);
        trace::Record("net", s0, trace::NowNs(), static_cast<uint64_t>(i + 1));
      }
      Spin(30000);
    });
  }
  for (std::thread& th : threads) th.join();
  trace::SetEnabled(false);
  const trace::Trace recorded = trace::Drain();
  ASSERT_EQ(recorded.threads.size(), 3u);
  const trace::LayerTotals t = trace::SelfTimes(recorded.threads);
  double sum = 0.0;
  for (const auto& [layer, s] : t.self_s) sum += s;
  EXPECT_NEAR(sum, t.root_s, 1e-9);
  EXPECT_GT(recorded.wall_s, 0.0);
  EXPECT_LT(std::abs(sum - recorded.wall_s) / recorded.wall_s, 0.01);
  EXPECT_EQ(t.count.at("engine"), 60u);
  EXPECT_EQ(t.count.at("net"), 60u);
  // engine spins 10, 20 and 30 µs per span on the three threads.
  EXPECT_GT(t.self_s.at("engine"), 20 * (10 + 20 + 30) * 1e-6);
  EXPECT_GT(t.self_s.at("other"), 3 * 30e-6);
}

TEST(SelfTime, DisabledTracingRecordsNothing) {
  (void)trace::Drain();
  {
    trace::Root root;
    trace::Scope s("api");
    trace::Record("net", 0, 1);
  }
  const trace::Trace recorded = trace::Drain();
  EXPECT_TRUE(recorded.threads.empty());
  EXPECT_DOUBLE_EQ(recorded.wall_s, 0.0);
}

wmsketch::Example MakeExample(std::vector<uint32_t> indices, std::vector<float> values,
                              int8_t y) {
  wmsketch::Example ex;
  ex.x = wmsketch::SparseVector(std::move(indices), std::move(values));
  ex.y = y;
  return ex;
}

TEST(StreamCheck, TextParsesBackToTheExample) {
  const wmsketch::Example drawn = MakeExample({0, 7, 41}, {0.1234567f, -2.5f, 1e-3f}, -1);
  const auto parsed = wmsketch::ParseLibsvmLine(wmsketch::FormatLibsvmLine(drawn));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(SameExample(parsed.value(), drawn));
}

TEST(StreamCheck, CatchesWhatAParserDefectWouldChange) {
  const wmsketch::Example drawn = MakeExample({0, 7, 41}, {0.5f, -2.5f, 1.0f}, 1);
  // An index off by one, a dropped feature, a flipped sign, a flipped label.
  EXPECT_FALSE(SameExample(MakeExample({1, 7, 41}, {0.5f, -2.5f, 1.0f}, 1), drawn));
  EXPECT_FALSE(SameExample(MakeExample({0, 7}, {0.5f, -2.5f}, 1), drawn));
  EXPECT_FALSE(SameExample(MakeExample({0, 7, 41}, {0.5f, 2.5f, 1.0f}, 1), drawn));
  EXPECT_FALSE(SameExample(MakeExample({0, 7, 41}, {0.5f, -2.5f, 1.0f}, -1), drawn));
  // Six significant digits of text are close enough.
  EXPECT_TRUE(SameExample(MakeExample({0, 7, 41}, {0.500001f, -2.5f, 1.0f}, 1), drawn));
}

}  // namespace
}  // namespace perfbench
