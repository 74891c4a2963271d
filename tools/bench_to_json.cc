// Converts benchmark report output into a single JSON object.
//
//   ./bench_kernel --report | ./bench_to_json > BENCH_KERNEL.json
//   ./bench_chaos --schedules=500 | ./bench_to_json > BENCH_CHAOS.json
//
// The conversion itself lives in bench_to_json_lib.cc (shared with the
// golden-file test); this binary just pipes stdin through it. Exits 1 with
// a diagnostic if the input contains a malformed run-object line.

#include <cstdio>
#include <string>

#include "core/flags.h"
#include "tools/bench_to_json_lib.h"

int main(int argc, char** argv) {
  lazyrep::core::Flags().Parse(argc, argv);
  std::string input;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), stdin)) > 0) {
    input.append(buf, n);
  }

  std::string out, error;
  if (!lazyrep::tools::ConvertBenchReport(input, &out, &error)) {
    std::fprintf(stderr, "bench_to_json: %s\n", error.c_str());
    return 1;
  }
  std::fputs(out.c_str(), stdout);
  return 0;
}
