#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "stream/sparse_vector.h"
#include "util/status.h"

namespace wmsketch {

/// Parses one LIBSVM-format line: `<label> <idx>:<val> <idx>:<val> ...`.
///
/// Labels "+1"/"1" map to +1; "-1"/"0" map to -1 (the 0/1 convention used by
/// some KDD-cup exports). Indices may be 0- or 1-based in the file; set
/// `one_based` for files that start at 1 (the LIBSVM convention) and they
/// are shifted down. Malformed fields, non-finite values, trailing junk
/// tokens, and out-of-order or duplicate indices all yield InvalidArgument
/// naming the offending token — the indices of a record must be strictly
/// increasing, and a violation is reported rather than silently repaired
/// (sorting/summing would mask an exporter bug and change every downstream
/// hash plan). Explicit zero values are validated, then dropped.
///
/// Values are exactly the floats std::from_chars returns, and the same tokens
/// are accepted: a plain decimal with at most 2^24 as its significand and a
/// decimal exponent within ±10 (what `%g` writes for ordinary magnitudes) is
/// converted by one exact float multiply or divide, and every other token
/// goes to std::from_chars itself.
Result<Example> ParseLibsvmLine(std::string_view line, bool one_based = true);

/// Reads every non-empty, non-comment ('#') line of `path` as an Example.
/// Paths ending in ".gz" are streamed through `gzip -cd` (no in-process
/// decompressor; the tool is assumed present, as on any machine that made
/// the archive). Fails with IOError if the file cannot be opened (or gzip
/// exits nonzero) and InvalidArgument (prefixed path:lineno:) on the first
/// malformed record.
Result<std::vector<Example>> ReadLibsvmFile(const std::string& path, bool one_based = true);

/// Serializes an example in LIBSVM format (1-based indices; values with six
/// significant digits, as `std::ostream << float` writes them). The index
/// shift is done in 64 bits, so feature 0xFFFFFFFF is written as 4294967296.
std::string FormatLibsvmLine(const Example& ex);

/// Writes examples to `path`, one per line. Returns IOError on failure.
Status WriteLibsvmFile(const std::string& path, const std::vector<Example>& examples);

}  // namespace wmsketch
