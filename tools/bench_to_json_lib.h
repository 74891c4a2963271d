// Library behind the bench_to_json tool so tests can drive the conversion
// without spawning a process (tests/bench_to_json_test.cc).
#pragma once

#include <string>

namespace lazyrep::tools {

/// Converts benchmark report text (the `--report` output of the bench
/// harnesses) into a single JSON document in `*out`.
///
/// Two input shapes compose freely:
///   * key=value lines become top-level fields; a value that is exactly a
///     JSON number is emitted as one, everything else ("nan", "0x10", "+5")
///     as a string;
///   * lines that are themselves JSON objects (one per run) are collected
///     verbatim into a top-level "runs" array.
/// Prose lines are ignored, so the converter can sit at the end of a
/// pipeline that also prints diagnostics — except that a line which *starts*
/// like a run object ('{') but is not exactly one JSON object is rejected:
/// returns false with a line-numbered message in `*error` rather than
/// silently dropping, or passing on, what was almost certainly a truncated
/// or mangled run record. A key=value key that repeats, or that is "runs"
/// (the run objects' array), is rejected the same way: a reader of a
/// document holding one key twice keeps only one value. A document returned
/// is strict JSON (RFC 8259) with unique keys.
bool ConvertBenchReport(const std::string& input, std::string* out,
                        std::string* error);

}  // namespace lazyrep::tools
