// lazyrep_diff — localize the first divergence between two event traces.
//
// Regression workflow: record the same seeded study twice (before and after
// a code or config change) with --trace=FILE, then diff the two captures.
// Point blocks are paired by index; within a pair, records are compared
// positionally and the first diverging event is printed with surrounding
// context, plus a (txn id, event type, occurrence) keyed follow-up that
// tells a displaced event from one that vanished.
//
//   lazyrep_diff A.trace B.trace [--point=N] [--context=N]
//
// Exit status: 0 identical, 1 divergence found, 2 usage or read error (a
// malformed or out-of-range number is a usage error).

#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "core/flags.h"
#include "replay/trace_diff.h"
#include "trace/trace_reader.h"

using lazyrep::replay::DiffPoint;
using lazyrep::replay::PointDiff;
using lazyrep::replay::TraceDiffOptions;
using lazyrep::trace::TraceFile;

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  TraceDiffOptions opt;
  int only_point = -1;
  lazyrep::core::Flags()
      .Positional("A.trace B.trace", 2, 2,
                  [&paths](std::string_view text, std::string*) {
                    paths.emplace_back(text);
                    return true;
                  },
                  "the two captures to compare")
      .Number("--point=N", &only_point, 0, std::numeric_limits<int>::max(),
              "diff only point pair N (default: every pair)")
      .Number("--context=N", &opt.context, 0, 10000,
              "records around a divergence (0-10000, default 3)")
      .Parse(argc, argv);

  TraceFile a, b;
  std::string error;
  if (!lazyrep::trace::ReadTraceFile(paths[0], &a, &error)) {
    std::fprintf(stderr, "lazyrep_diff: %s: %s\n", paths[0].c_str(),
                 error.c_str());
    return 2;
  }
  if (!lazyrep::trace::ReadTraceFile(paths[1], &b, &error)) {
    std::fprintf(stderr, "lazyrep_diff: %s: %s\n", paths[1].c_str(),
                 error.c_str());
    return 2;
  }

  size_t common = a.points.size() < b.points.size() ? a.points.size()
                                                    : b.points.size();
  if (only_point >= 0 && static_cast<size_t>(only_point) >= common) {
    std::fprintf(stderr, "lazyrep_diff: --point=%d out of range (%zu common "
                 "points)\n", only_point, common);
    return 2;
  }

  bool diverged = false;
  for (size_t p = 0; p < common; ++p) {
    if (only_point >= 0 && static_cast<size_t>(p) != (size_t)only_point) {
      continue;
    }
    PointDiff d = DiffPoint(a.points[p], b.points[p], opt);
    if (d.identical) {
      std::printf("point %zu: identical (%zu records)\n", p,
                  a.points[p].records.size());
      continue;
    }
    diverged = true;
    std::printf("point %zu: DIVERGED\n%s", p, d.summary.c_str());
  }
  if (a.points.size() != b.points.size()) {
    diverged = true;
    std::printf("files hold different point counts (%zu vs %zu)\n",
                a.points.size(), b.points.size());
  }
  return diverged ? 1 : 0;
}
