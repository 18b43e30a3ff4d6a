#include "stream/libsvm_io.h"

#include <sys/wait.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

namespace wmsketch {

namespace {

bool IsBlank(char c) { return c == ' ' || c == '\t'; }

bool IsDigit(char c) { return static_cast<unsigned char>(c - '0') < 10; }

// The first blank at or after `p`, or `end`.
const char* TokenEnd(const char* p, const char* end) {
  while (p < end && !IsBlank(*p)) ++p;
  return p;
}

// Powers of ten that are exact floats: 10^k = 2^k·5^k and 5^10 < 2^24.
constexpr float kExactPow10[] = {1e0f, 1e1f, 1e2f, 1e3f, 1e4f, 1e5f,
                                 1e6f, 1e7f, 1e8f, 1e9f, 1e10f};
constexpr int kMaxExactPow10 = 10;
constexpr uint64_t kMaxExactSignificand = uint64_t{1} << 24;

// Reads the value token at `p` when it is `[-]digits[.digits][(e|E)[+|-]digits]`
// (at least one significand digit), ends at a blank or `end`, and its
// decimal significand m and exponent e satisfy m ≤ 2^24 and |e| ≤ 10. Then m
// and 10^|e| are exact floats, and m·10^e (or m/10^-e) is one correctly
// rounded IEEE operation: the float std::from_chars returns, bit for bit
// (Clinger's fast path). Returns the token's end, or nullptr for any other
// token, which the caller hands to std::from_chars.
const char* ParseExactDecimal(const char* p, const char* end, float* out) {
  const bool negative = p < end && *p == '-';
  if (negative) ++p;
  uint64_t m = 0;
  int exponent = 0;
  bool any_digit = false;
  for (; p < end && IsDigit(*p); ++p, any_digit = true) {
    m = m * 10 + static_cast<uint64_t>(*p - '0');
    if (m > kMaxExactSignificand) return nullptr;
  }
  if (p < end && *p == '.') {
    for (++p; p < end && IsDigit(*p); ++p, any_digit = true) {
      m = m * 10 + static_cast<uint64_t>(*p - '0');
      // Bounding the fraction's length keeps `exponent` far from overflow.
      if (m > kMaxExactSignificand || --exponent < -100) return nullptr;
    }
  }
  if (!any_digit) return nullptr;
  if (p < end && (*p == 'e' || *p == 'E')) {
    ++p;
    const bool negative_exponent = p < end && *p == '-';
    if (p < end && (*p == '-' || *p == '+')) ++p;
    if (p == end || !IsDigit(*p)) return nullptr;
    int e = 0;
    for (; p < end && IsDigit(*p); ++p) {
      e = e * 10 + (*p - '0');
      if (e > 1000) return nullptr;
    }
    exponent += negative_exponent ? -e : e;
  }
  if ((p < end && !IsBlank(*p)) || exponent < -kMaxExactPow10 || exponent > kMaxExactPow10) {
    return nullptr;
  }
  const float v = exponent < 0 ? static_cast<float>(m) / kExactPow10[-exponent]
                               : static_cast<float>(m) * kExactPow10[exponent];
  *out = negative ? -v : v;
  return p;
}

bool EndsWithGz(const std::string& path) {
  return path.size() > 3 && path.compare(path.size() - 3, 3, ".gz") == 0;
}

// Single-quotes `s` for /bin/sh so the popen("gzip -cd ...") passthrough is
// safe for any path the caller hands us.
std::string ShellQuote(const std::string& s) {
  std::string q = "'";
  for (const char c : s) {
    if (c == '\'') {
      q += "'\\''";
    } else {
      q += c;
    }
  }
  q += "'";
  return q;
}

}  // namespace

Result<Example> ParseLibsvmLine(std::string_view line, bool one_based) {
  // Strip trailing CR/comment.
  if (const size_t hash = line.find('#'); hash != std::string_view::npos) {
    line = line.substr(0, hash);
  }
  while (!line.empty() && (line.back() == '\r' || line.back() == '\n')) line.remove_suffix(1);

  const char* p = line.data();
  const char* const end = p + line.size();
  while (p < end && IsBlank(*p)) ++p;
  const char* const label_end = TokenEnd(p, end);
  const std::string_view label_tok(p, static_cast<size_t>(label_end - p));
  if (label_tok.empty()) return Status::InvalidArgument("empty line");

  int8_t y;
  if (label_tok == "+1" || label_tok == "1") {
    y = 1;
  } else if (label_tok == "-1" || label_tok == "0") {
    y = -1;
  } else {
    return Status::InvalidArgument("unrecognized label '" + std::string(label_tok) + "'");
  }
  p = label_end;

  // One allocation per array: each well-formed feature token has one ':'.
  const size_t features = static_cast<size_t>(std::count(p, end, ':'));
  std::vector<uint32_t> indices;
  std::vector<float> values;
  indices.reserve(features);
  values.reserve(features);
  bool have_prev = false;
  uint64_t prev = 0;
  // One left-to-right pass over `<idx>:<val>` tokens. Only the error paths
  // look back at (or ahead to the end of) the token they name.
  while (true) {
    while (p < end && IsBlank(*p)) ++p;
    if (p == end) break;
    const char* const tok = p;
    uint64_t idx = 0;
    bool idx_overflow = false;
    for (; p < end && IsDigit(*p); ++p) {
      const uint64_t digit = static_cast<uint64_t>(*p - '0');
      idx_overflow = idx_overflow || idx > (UINT64_MAX - digit) / 10;
      idx = idx * 10 + digit;
    }
    const char* const colon = p;
    const char* const val = colon + 1;
    if (colon == tok || colon == end || *colon != ':' || val == end || IsBlank(*val)) {
      // Not `digits:value`: classify the whole token by its first ':'.
      const std::string_view t(tok, static_cast<size_t>(TokenEnd(colon, end) - tok));
      const size_t c = t.find(':');
      if (c == std::string_view::npos || c == 0 || c + 1 >= t.size()) {
        return Status::InvalidArgument("malformed feature '" + std::string(t) + "'");
      }
      return Status::InvalidArgument("bad feature index '" + std::string(t.substr(0, c)) + "'");
    }
    if (idx_overflow) {
      return Status::InvalidArgument("bad feature index '" + std::string(tok, colon) + "'");
    }
    if (one_based) {
      if (idx == 0) return Status::InvalidArgument("index 0 in one-based file");
      idx -= 1;
    }
    if (idx > 0xffffffffULL) {
      return Status::OutOfRange("feature index " + std::to_string(idx) + " exceeds 32 bits");
    }
    // Enforce the strictly-increasing index contract here, at the offending
    // token, rather than silently repairing with FromUnsorted: a duplicate or
    // out-of-order index in a real dataset export is almost always a
    // generator bug upstream, and "sort and sum" would mask it while also
    // changing every downstream hash plan.
    if (have_prev && idx <= prev) {
      return Status::InvalidArgument(
          std::string(idx == prev ? "duplicate" : "out-of-order") + " feature index in '" +
          std::string(tok, TokenEnd(val, end)) + "' (indices must be strictly increasing)");
    }
    have_prev = true;
    prev = idx;
    float value = 0.0f;
    p = ParseExactDecimal(val, end, &value);
    if (p == nullptr) {
      // Every other token: std::from_chars (locale-independent, correctly
      // rounded) decides, as it does the error.
      p = TokenEnd(val, end);
      const auto [vptr, verr] = std::from_chars(val, p, value);
      if (verr != std::errc() || vptr != p) {
        return Status::InvalidArgument("bad feature value '" + std::string(val, p) + "'");
      }
      if (!std::isfinite(value)) {
        return Status::InvalidArgument("non-finite feature value '" + std::string(val, p) +
                                       "'");
      }
    }
    // Explicit zeros are legal in the wild (some exporters emit the full
    // active set) but carry no information for a sparse learner; drop them
    // after they have participated in the monotonicity check.
    if (value != 0.0f) {
      indices.push_back(static_cast<uint32_t>(idx));
      values.push_back(value);
    }
  }

  return Example{SparseVector(std::move(indices), std::move(values)), y};
}

namespace {

// Parses one already-read line in the context of a file scan: skips blanks
// and comments, prefixes parse failures with path:lineno.
Status ConsumeLine(std::string_view line, const std::string& path, size_t lineno,
                   bool one_based, std::vector<Example>& out) {
  const size_t first = line.find_first_not_of(" \t\r\n");
  if (first == std::string_view::npos || line[first] == '#') return Status::OK();
  Result<Example> ex = ParseLibsvmLine(line, one_based);
  if (!ex.ok()) {
    return Status(ex.status().code(),
                  path + ":" + std::to_string(lineno) + ": " + ex.status().message());
  }
  out.push_back(std::move(ex).value());
  return Status::OK();
}

// Streams a gzip-compressed file through `gzip -cd` (no zlib dependency; the
// decompressor is already on every machine that produced the .gz). The
// decompressor's exit status is checked on close: a truncated or corrupt .gz
// makes gzip exit nonzero *after* emitting whatever prefix it could decode,
// so trusting EOF alone would silently accept a partial dataset as complete.
Result<std::vector<Example>> ReadLibsvmGzFile(const std::string& path, bool one_based) {
  const std::string cmd = "gzip -cd -- " + ShellQuote(path);
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return Status::IOError("cannot run '" + cmd + "'");
  std::vector<Example> out;
  Status st = Status::OK();
  size_t lineno = 0;
  char* buf = nullptr;
  size_t cap = 0;
  ssize_t n;
  while (st.ok() && (n = getline(&buf, &cap, pipe)) != -1) {
    ++lineno;
    if (n > 0 && buf[n - 1] == '\n') --n;
    st = ConsumeLine(std::string_view(buf, static_cast<size_t>(n)), path, lineno, one_based,
                     out);
  }
  free(buf);
  const bool pipe_error = ferror(pipe) != 0;
  const int rc = pclose(pipe);
  if (!st.ok()) return st;
  if (pipe_error) return Status::IOError("read error on gzip pipe for '" + path + "'");
  if (rc == -1) {
    return Status::IOError("cannot collect gzip exit status for '" + path + "': " +
                           std::strerror(errno));
  }
  if (rc != 0) {
    // Decode the wait status so a truncated stream (exit 1), a usage error
    // (exit 2), and a signaled decompressor are all distinguishable.
    std::string detail;
    if (WIFEXITED(rc)) {
      detail = "exit status " + std::to_string(WEXITSTATUS(rc));
    } else if (WIFSIGNALED(rc)) {
      detail = "killed by signal " + std::to_string(WTERMSIG(rc));
    } else {
      detail = "wait status " + std::to_string(rc);
    }
    return Status::IOError("gzip -cd failed for '" + path + "' (" + detail +
                           "); stream may be truncated or corrupt");
  }
  return out;
}

}  // namespace

Result<std::vector<Example>> ReadLibsvmFile(const std::string& path, bool one_based) {
  if (EndsWithGz(path)) return ReadLibsvmGzFile(path, one_based);
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open '" + path + "'");
  std::vector<Example> out;
  std::string line;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    WMS_RETURN_NOT_OK(ConsumeLine(line, path, lineno, one_based, out));
  }
  return out;
}

std::string FormatLibsvmLine(const Example& ex) {
  // Built in a reused per-thread buffer and returned as an exact-size copy:
  // callers keep many formatted lines, so the result carries no slack.
  thread_local std::string buf;
  buf.assign(ex.y > 0 ? "+1" : "-1");
  // ' ', up to 10 index digits, ':', and a float of six significant digits
  // (at most 13 characters: "-1.17549e-38").
  char feature[32];
  char* const feature_end = feature + sizeof(feature);
  for (size_t i = 0; i < ex.x.nnz(); ++i) {
    char* p = feature;
    *p++ = ' ';
    // One-based in 64 bits, so feature 0xFFFFFFFF is written as 4294967296.
    p = std::to_chars(p, feature_end, static_cast<uint64_t>(ex.x.index(i)) + 1).ptr;
    *p++ = ':';
    // The rendering of `std::ostream << float`: %g with six significant digits.
    p = std::to_chars(p, feature_end, ex.x.value(i), std::chars_format::general, 6).ptr;
    buf.append(feature, p);
  }
  return buf;
}

Status WriteLibsvmFile(const std::string& path, const std::vector<Example>& examples) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open '" + path + "' for writing");
  for (const Example& ex : examples) {
    out << FormatLibsvmLine(ex) << '\n';
  }
  if (!out) return Status::IOError("write failed for '" + path + "'");
  return Status::OK();
}

}  // namespace wmsketch
