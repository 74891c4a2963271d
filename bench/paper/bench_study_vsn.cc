// Reproduces the vsN scale-up study of §4.4 (Figures 15-16): the number of
// sites varies from 2 to 140 with locTPS fixed at 15 and 20 primary items
// per site, so TPS and |DB| grow with the system.

#include <cstdio>

#include "bench/paper/figures.h"
#include "core/config.h"
#include "core/study.h"

using namespace lazyrep;
using namespace lazyrep::bench;

int main(int argc, char** argv) {
  std::vector<FigureSpec> figures = {
      {15, "Number of completed transactions, vsN study", "#sites",
       "completed transactions per second", CompletedTps()},
      {16, "Fraction of transactions that were aborted, vsN study", "#sites",
       "abort rate", AbortRate()},
  };
  core::BenchOptions opt;
  opt.FlagTable(core::kBenchStudy, FigureNumbers(figures))
      .Parse(argc, argv);
  core::StudyRunner runner("vsN", [&](double sites) {
    core::SystemConfig c = core::SystemConfig::VsN(static_cast<int>(sites));
    c.total_txns = opt.txns;
    c.seed = opt.seed;
    return c;
  });
  runner.set_protocols(opt.protocols);
  runner.set_jobs(opt.jobs);
  if (!opt.trace.empty()) runner.set_trace_path(opt.trace);

  std::vector<double> sites = {2, 10, 20, 40, 60, 80, 100, 120, 140};
  std::printf("vsN study (Table 1, §4.4) — %llu transactions per point, "
              "locTPS = 15\n",
              (unsigned long long)opt.txns);
  std::vector<core::StudyPoint> points = runner.Sweep(opt.Thin(sites));
  PrintFigures(points, figures, opt.figure);
  if (opt.figure == 0) PrintUtilizationAppendix(points);
  return 0;
}
