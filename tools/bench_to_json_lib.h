// Library behind the bench_to_json tool so tests can drive the conversion
// without spawning a process (tests/bench_to_json_test.cc).
#pragma once

#include <string>

namespace lazyrep::tools {

/// Converts benchmark report text (the `--report` output of the bench
/// harnesses) into a single JSON document in `*out`.
///
/// Two input shapes compose freely:
///   * key=value lines become top-level fields; values that parse fully as
///     numbers are emitted as JSON numbers, everything else as strings;
///   * lines that are themselves JSON objects (one per run) are collected
///     verbatim into a top-level "runs" array.
/// Prose lines are ignored, so the converter can sit at the end of a
/// pipeline that also prints diagnostics — except that a line which *starts*
/// like a run object ('{') but is not a well-formed single-line object is
/// rejected: returns false with a line-numbered message in `*error` rather
/// than silently dropping what was almost certainly a truncated run record.
bool ConvertBenchReport(const std::string& input, std::string* out,
                        std::string* error);

}  // namespace lazyrep::tools
