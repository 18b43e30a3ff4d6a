// Tests for the stream substrate: sparse vectors, LIBSVM parsing with
// failure injection, reservoir sampling, and the sliding pair window.

#include <gtest/gtest.h>

#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "stream/libsvm_io.h"
#include "stream/reservoir.h"
#include "stream/sparse_vector.h"
#include "stream/window.h"
#include "util/random.h"

namespace wmsketch {
namespace {

// ------------------------------------------------------------ SparseVector

TEST(SparseVectorTest, OneHot) {
  const SparseVector v = SparseVector::OneHot(7, 2.0f);
  EXPECT_EQ(v.nnz(), 1u);
  EXPECT_EQ(v.index(0), 7u);
  EXPECT_EQ(v.value(0), 2.0f);
  EXPECT_TRUE(v.Validate().ok());
}

TEST(SparseVectorTest, FromUnsortedSortsAndMerges) {
  auto r = SparseVector::FromUnsorted({{5, 1.0f}, {2, 2.0f}, {5, 3.0f}, {1, -1.0f}});
  ASSERT_TRUE(r.ok());
  const SparseVector& v = r.value();
  ASSERT_EQ(v.nnz(), 3u);
  EXPECT_EQ(v.index(0), 1u);
  EXPECT_EQ(v.index(1), 2u);
  EXPECT_EQ(v.index(2), 5u);
  EXPECT_EQ(v.value(2), 4.0f);  // merged duplicates
  EXPECT_TRUE(v.Validate().ok());
}

TEST(SparseVectorTest, FromUnsortedDropsCancellations) {
  auto r = SparseVector::FromUnsorted({{3, 1.5f}, {3, -1.5f}, {4, 1.0f}});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().nnz(), 1u);
  EXPECT_EQ(r.value().index(0), 4u);
}

TEST(SparseVectorTest, FromUnsortedRejectsNonFinite) {
  EXPECT_FALSE(SparseVector::FromUnsorted({{1, std::nanf("")}}).ok());
  EXPECT_FALSE(SparseVector::FromUnsorted({{1, INFINITY}}).ok());
}

TEST(SparseVectorTest, ValidateRejectsUnsortedAndZeros) {
  EXPECT_FALSE(SparseVector({3, 1}, {1.0f, 1.0f}).Validate().ok());
  EXPECT_FALSE(SparseVector({1, 1}, {1.0f, 1.0f}).Validate().ok());
  EXPECT_FALSE(SparseVector({1, 2}, {1.0f, 0.0f}).Validate().ok());
  EXPECT_TRUE(SparseVector({}, {}).Validate().ok());  // empty is valid
}

TEST(SparseVectorTest, NormsAndNormalize) {
  SparseVector v({0, 3}, {3.0f, -4.0f});
  EXPECT_DOUBLE_EQ(v.L1Norm(), 7.0);
  EXPECT_DOUBLE_EQ(v.L2Norm(), 5.0);
  v.NormalizeL1();
  EXPECT_NEAR(v.L1Norm(), 1.0, 1e-7);
  SparseVector u({1}, {2.0f});
  u.NormalizeL2();
  EXPECT_NEAR(u.L2Norm(), 1.0, 1e-7);
  SparseVector empty;
  empty.NormalizeL1();  // no-op, no crash
  EXPECT_EQ(empty.nnz(), 0u);
}

TEST(SparseVectorTest, DotAgainstDense) {
  const SparseVector v({0, 2}, {2.0f, 3.0f});
  const std::vector<float> dense = {1.0f, 10.0f, -1.0f};
  EXPECT_DOUBLE_EQ(v.Dot(dense), 2.0 - 3.0);
}

TEST(ExampleTest, ValidateLabelDomain) {
  Example good{SparseVector::OneHot(1), 1};
  EXPECT_TRUE(good.Validate().ok());
  Example bad{SparseVector::OneHot(1), 0};
  EXPECT_FALSE(bad.Validate().ok());
}

// ----------------------------------------------------------------- LIBSVM

TEST(LibsvmTest, ParsesWellFormedLine) {
  auto r = ParseLibsvmLine("+1 1:0.5 7:2 12:-3.5");
  ASSERT_TRUE(r.ok());
  const Example& ex = r.value();
  EXPECT_EQ(ex.y, 1);
  ASSERT_EQ(ex.x.nnz(), 3u);
  EXPECT_EQ(ex.x.index(0), 0u);  // shifted to 0-based
  EXPECT_EQ(ex.x.value(2), -3.5f);
}

TEST(LibsvmTest, LabelConventions) {
  EXPECT_EQ(ParseLibsvmLine("1 1:1").value().y, 1);
  EXPECT_EQ(ParseLibsvmLine("-1 1:1").value().y, -1);
  EXPECT_EQ(ParseLibsvmLine("0 1:1").value().y, -1);  // 0/1 convention
}

TEST(LibsvmTest, CommentsAndWhitespaceTolerated) {
  auto r = ParseLibsvmLine("  +1   3:1.5   # trailing comment\r");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().x.nnz(), 1u);
}

// Parses `line`, which must be rejected with exactly `want` (code: message).
void ExpectRejected(std::string_view line, std::string_view want) {
  const Result<Example> r = ParseLibsvmLine(line);
  ASSERT_FALSE(r.ok()) << line;
  EXPECT_EQ(r.status().ToString(), want) << line;
}

TEST(LibsvmTest, FailureInjection) {
  // Each rejection states its reason word for word.
  ExpectRejected("", "InvalidArgument: empty line");
  ExpectRejected("   ", "InvalidArgument: empty line");
  ExpectRejected("2 1:1", "InvalidArgument: unrecognized label '2'");
  ExpectRejected("+1 x:1", "InvalidArgument: bad feature index 'x'");
  ExpectRejected("+1 1:abc", "InvalidArgument: bad feature value 'abc'");
  ExpectRejected("+1 1:nan", "InvalidArgument: non-finite feature value 'nan'");
  ExpectRejected("+1 1:inf", "InvalidArgument: non-finite feature value 'inf'");
  ExpectRejected("+1 1:+1.5", "InvalidArgument: bad feature value '+1.5'");
  ExpectRejected("+1 1:0x1p3", "InvalidArgument: bad feature value '0x1p3'");
  ExpectRejected("+1 1:1e", "InvalidArgument: bad feature value '1e'");
  ExpectRejected("+1 1:1e-50", "InvalidArgument: bad feature value '1e-50'");  // underflow
  ExpectRejected("+1 0:1", "InvalidArgument: index 0 in one-based file");
  ExpectRejected("+1 0:abc", "InvalidArgument: index 0 in one-based file");
  ExpectRejected("+1 :5", "InvalidArgument: malformed feature ':5'");  // empty index
  ExpectRejected("+1 5:", "InvalidArgument: malformed feature '5:'");  // empty value
  ExpectRejected("+1 4294967297:1", "OutOfRange: feature index 4294967296 exceeds 32 bits");
  ExpectRejected("+1 99999999999999999999:1",
                 "InvalidArgument: bad feature index '99999999999999999999'");
  // A CR is stripped only where it ends the record; here a blank follows it.
  ExpectRejected("+1 1:2\r # comment", "InvalidArgument: bad feature value '2\r'");
}

TEST(LibsvmTest, RejectsNonMonotoneIndices) {
  // Duplicate and out-of-order indices are reported, not silently repaired:
  // the strict contract names the offending token.
  ExpectRejected("+1 3:1.0 3:2.0",
                 "InvalidArgument: duplicate feature index in '3:2.0' (indices must be "
                 "strictly increasing)");
  ExpectRejected("+1 7:1.0 2:2.0",
                 "InvalidArgument: out-of-order feature index in '2:2.0' (indices must be "
                 "strictly increasing)");
}

TEST(LibsvmTest, RejectsTrailingJunk) {
  ExpectRejected("+1 1:1.0 junk", "InvalidArgument: malformed feature 'junk'");  // bare token
  ExpectRejected("+1 1:1.0 2:3.5xy",
                 "InvalidArgument: bad feature value '3.5xy'");  // junk glued to value
  ExpectRejected("+1 1:1.0 2q:3.5",
                 "InvalidArgument: bad feature index '2q'");  // junk glued to index
  ExpectRejected("+1 1:1.0 -1", "InvalidArgument: malformed feature '-1'");  // stray label
  ExpectRejected("+1 1:2:3", "InvalidArgument: bad feature value '2:3'");    // second ':'
}

// Parses `tok` as the value of one feature and checks the outcome against
// std::from_chars<float>: the same tokens accepted, bit-identical values.
void ExpectValueMatchesFromChars(const std::string& tok) {
  float want = 0.0f;
  const auto [end, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), want);
  const bool accepted =
      ec == std::errc() && end == tok.data() + tok.size() && std::isfinite(want);
  const Result<Example> r = ParseLibsvmLine("+1 3:" + tok);
  ASSERT_EQ(r.ok(), accepted) << "'" << tok << "'";
  if (!accepted) return;
  if (want == 0.0f) {
    EXPECT_EQ(r.value().x.nnz(), 0u) << "'" << tok << "'";  // zeros are dropped
    return;
  }
  ASSERT_EQ(r.value().x.nnz(), 1u) << "'" << tok << "'";
  EXPECT_EQ(std::bit_cast<uint32_t>(r.value().x.value(0)), std::bit_cast<uint32_t>(want))
      << "'" << tok << "'";
}

std::string Printf(const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

TEST(LibsvmTest, ValuesMatchFromCharsBitForBit) {
  // Edges of an exact decimal fast path (mantissa ≤ 2^24, decimal exponent
  // in [-10, 10]) and of the grammar, then generated tokens.
  for (const char* tok :
       {"16777216", "16777217", "-16777216", "-16777217", "1677721.6", "1677721.7",
        "0.16777216", "0.16777217", "16777216e10", "16777217e10", "16777216e-10",
        "16777217e-10", "1e10", "1e11", "1e-10", "1e-11", "1E10", "1e+10", "1e-010",
        "7e10", "9e-11", "0.0000000001", "0.00000000001", "10000000000", "100000000000",
        "1234567", "12345678", "123456789", "0.1234567", "0.12345678", "0.123456789",
        "1.", ".5", "-.5", "-1.", "0", "-0", "0.0", "-0.0", "0e5", "00012.5000",
        "000000000000000000001", "1.000000000000000000000", "1e-50", "1e50", "3.4e38",
        "3.5e38", "1e-40", "1e-45", "0.0123457", "1.23457e-05", "-1.23457e+06", "1e",
        "1e+", "1e-", "1.e3", ".e3", ".", "-", "-.", "+1.5", "inf", "-inf", "nan",
        "0x1p3", "1..2", "1.2.3", "1e3.5", "--1", "1-", "0.1:2"}) {
    ExpectValueMatchesFromChars(tok);
  }
  Rng rng(20181);
  for (int n = 0; n < 20000; ++n) {
    // Log-uniform magnitudes across and beyond the fast path's exponent range.
    const double v = (rng.Bounded(2) ? -1.0 : 1.0) * std::pow(10.0, 28.0 * rng.NextDouble() - 14.0);
    for (const char* fmt : {"%g", "%.7g", "%.8g", "%.9g", "%.3e", "%.10f", "%.4f"}) {
      ExpectValueMatchesFromChars(Printf(fmt, v));
    }
    // Integer mantissas around 2^24 under explicit exponents around ±10.
    const uint64_t m = (1u << 24) - 64 + rng.Bounded(128);
    const int e = static_cast<int>(rng.Bounded(25)) - 12;
    ExpectValueMatchesFromChars(std::to_string(m) + "e" + std::to_string(e));
  }
}

TEST(LibsvmTest, ExplicitZerosValidatedThenDropped) {
  // A zero value still participates in the monotonicity check but is not
  // stored (sparse learners only see nonzeros).
  auto r = ParseLibsvmLine("+1 1:1.0 2:0 5:2.0");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().x.nnz(), 2u);
  EXPECT_EQ(r.value().x.index(1), 4u);
  EXPECT_FALSE(ParseLibsvmLine("+1 2:0 2:1.0").ok());  // dup behind a zero
}

TEST(LibsvmTest, GzipPassthroughReadsCompressedFiles) {
  const std::string plain = std::filesystem::temp_directory_path() / "wms_libsvm_gz_test.txt";
  const std::string gz = plain + ".gz";
  {
    std::ofstream out(plain);
    out << "+1 1:0.5 3:-2\n-1 2:1.25\n";
  }
  if (std::system(("gzip -f " + plain).c_str()) != 0) {
    GTEST_SKIP() << "gzip tool unavailable";
  }
  auto r = ReadLibsvmFile(gz);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().size(), 2u);
  EXPECT_EQ(r.value()[0].x, SparseVector({0, 2}, {0.5f, -2.0f}));
  EXPECT_EQ(r.value()[1].y, -1);
  std::remove(gz.c_str());
  // A missing .gz surfaces gzip's failure as an error, not an empty dataset.
  EXPECT_FALSE(ReadLibsvmFile("/nonexistent/path/xyz.gz").ok());
}

TEST(LibsvmTest, TruncatedGzipSurfacesDecompressorFailure) {
  // A torn .gz must fail loudly with the decompressor's exit status — EOF on
  // the pipe alone would silently accept a partial dataset as complete.
  const std::string plain =
      std::filesystem::temp_directory_path() / "wms_libsvm_gz_trunc.txt";
  const std::string gz = plain + ".gz";
  {
    std::ofstream out(plain);
    for (int i = 0; i < 64; ++i) out << "+1 1:0.5 3:-2\n";
  }
  if (std::system(("gzip -f " + plain).c_str()) != 0) {
    GTEST_SKIP() << "gzip tool unavailable";
  }
  // Keep only the member header: gzip decodes nothing and exits nonzero.
  std::string head(10, '\0');
  {
    std::ifstream in(gz, std::ios::binary);
    ASSERT_TRUE(in.read(head.data(), static_cast<std::streamsize>(head.size())).good());
  }
  {
    std::ofstream out(gz, std::ios::binary | std::ios::trunc);
    out.write(head.data(), static_cast<std::streamsize>(head.size()));
  }
  auto r = ReadLibsvmFile(gz);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
  EXPECT_NE(r.status().message().find("truncated or corrupt"), std::string::npos)
      << r.status().ToString();
  std::remove(gz.c_str());
}

TEST(LibsvmTest, ZeroBasedMode) {
  auto r = ParseLibsvmLine("+1 0:1.0 5:2.0", /*one_based=*/false);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().x.index(0), 0u);
  EXPECT_EQ(r.value().x.index(1), 5u);
}

TEST(LibsvmTest, RoundTripFile) {
  const std::string path = std::filesystem::temp_directory_path() / "wms_libsvm_test.txt";
  std::vector<Example> examples;
  examples.push_back(Example{SparseVector({0, 4}, {1.0f, -2.0f}), 1});
  examples.push_back(Example{SparseVector({2}, {0.5f}), -1});
  ASSERT_TRUE(WriteLibsvmFile(path, examples).ok());
  auto r = ReadLibsvmFile(path);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().size(), 2u);
  EXPECT_EQ(r.value()[0].x, examples[0].x);
  EXPECT_EQ(r.value()[1].y, -1);
  std::remove(path.c_str());
}

TEST(LibsvmTest, FormatRoundTripsTheLargestIndex) {
  // Feature 0xFFFFFFFF is written one-based as 4294967296, not wrapped to 0.
  const Example ex{SparseVector({7, 0xffffffffu}, {1.5f, -2.0f}), -1};
  const std::string line = FormatLibsvmLine(ex);
  EXPECT_EQ(line, "-1 8:1.5 4294967296:-2");
  const Result<Example> r = ParseLibsvmLine(line);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().x, ex.x);
}

TEST(LibsvmTest, FormatMatchesStreamRendering) {
  // Values render exactly as `std::ostream << float` does (six significant
  // digits, %g style): random bit patterns, log-uniform magnitudes, extremes.
  std::vector<float> values = {1.0f,
                               -2.5f,
                               0.1f,
                               1e-5f,
                               123456.0f,
                               1234567.0f,
                               -0.0f,
                               std::numeric_limits<float>::max(),
                               std::numeric_limits<float>::min(),
                               std::numeric_limits<float>::denorm_min(),
                               std::numeric_limits<float>::infinity(),
                               std::numeric_limits<float>::quiet_NaN()};
  Rng rng(7);
  for (int i = 0; i < 30000; ++i) {
    values.push_back(std::bit_cast<float>(rng.NextU32()));
    values.push_back(static_cast<float>(std::pow(10.0, 24.0 * rng.NextDouble() - 12.0)));
  }
  std::vector<uint32_t> indices(values.size());
  for (size_t i = 0; i < indices.size(); ++i) indices[i] = static_cast<uint32_t>(3 * i);
  const Example ex{SparseVector(indices, values), 1};
  std::ostringstream want;
  want << "+1";
  for (size_t i = 0; i < values.size(); ++i) {
    want << ' ' << (static_cast<uint64_t>(indices[i]) + 1) << ':' << values[i];
  }
  EXPECT_EQ(FormatLibsvmLine(ex), want.str());
}

TEST(LibsvmTest, FileErrorsSurfaceLineNumbers) {
  const std::string path = std::filesystem::temp_directory_path() / "wms_libsvm_bad.txt";
  {
    std::ofstream out(path);
    out << "+1 1:1\n# comment\n\n+1 bogus\n";
  }
  auto r = ReadLibsvmFile(path);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find(":4:"), std::string::npos) << r.status().ToString();
  std::remove(path.c_str());
  EXPECT_FALSE(ReadLibsvmFile("/nonexistent/path/xyz").ok());
}

// -------------------------------------------------------------- Reservoir

TEST(ReservoirTest, FillsToCapacityThenSamples) {
  ReservoirSample<uint32_t> res(4, 1);
  EXPECT_TRUE(res.empty());
  for (uint32_t i = 0; i < 4; ++i) res.Add(i);
  EXPECT_EQ(res.size(), 4u);
  for (uint32_t i = 4; i < 100; ++i) res.Add(i);
  EXPECT_EQ(res.size(), 4u);
  EXPECT_EQ(res.count(), 100u);
}

TEST(ReservoirTest, UniformInclusionProbability) {
  // Each of 100 stream items should land in a 10-slot reservoir w.p. 0.1.
  const int trials = 3000;
  std::vector<int> inclusion(100, 0);
  for (int t = 0; t < trials; ++t) {
    ReservoirSample<uint32_t> res(10, static_cast<uint64_t>(t) + 1);
    for (uint32_t i = 0; i < 100; ++i) res.Add(i);
    for (const uint32_t item : res.items()) ++inclusion[item];
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_NEAR(static_cast<double>(inclusion[i]) / trials, 0.1, 0.035) << "item " << i;
  }
}

TEST(ReservoirTest, SampleDrawsFromContents) {
  ReservoirSample<uint32_t> res(3, 5);
  res.Add(11);
  res.Add(22);
  Rng rng(6);
  for (int i = 0; i < 50; ++i) {
    const uint32_t s = res.Sample(rng);
    EXPECT_TRUE(s == 11 || s == 22);
  }
}

// ----------------------------------------------------------------- Window

TEST(WindowTest, PairsWithinSpanOnly) {
  SlidingWindowPairs window(3);  // pairs with the 2 preceding tokens
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  const auto cb = [&](uint32_t u, uint32_t v) { pairs.emplace_back(u, v); };
  window.Push(1, cb);
  window.Push(2, cb);
  window.Push(3, cb);
  window.Push(4, cb);
  const std::vector<std::pair<uint32_t, uint32_t>> expected = {
      {1, 2}, {1, 3}, {2, 3}, {2, 4}, {3, 4}};
  EXPECT_EQ(pairs, expected);
}

TEST(WindowTest, ResetStopsCrossBoundaryPairs) {
  SlidingWindowPairs window(4);
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  const auto cb = [&](uint32_t u, uint32_t v) { pairs.emplace_back(u, v); };
  window.Push(1, cb);
  window.Reset();
  window.Push(2, cb);
  ASSERT_EQ(pairs.size(), 0u);
  window.Push(3, cb);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0], (std::pair<uint32_t, uint32_t>{2, 3}));
}

TEST(WindowTest, PaperWindowSixYieldsFivePredecessors) {
  SlidingWindowPairs window(6);
  int count = 0;
  const auto cb = [&](uint32_t, uint32_t) { ++count; };
  for (uint32_t i = 0; i < 20; ++i) window.Push(i, cb);
  // After warmup, each token pairs with 5 predecessors: 0+1+2+3+4+5*15.
  EXPECT_EQ(count, 0 + 1 + 2 + 3 + 4 + 5 * 15);
}

}  // namespace
}  // namespace wmsketch
