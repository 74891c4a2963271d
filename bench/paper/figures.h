#ifndef LAZYREP_BENCH_PAPER_FIGURES_H_
#define LAZYREP_BENCH_PAPER_FIGURES_H_

#include <string>
#include <vector>

#include "core/study.h"

namespace lazyrep::bench {

/// Describes one paper figure reproduced from a study's collected points.
struct FigureSpec {
  int number;            ///< paper figure number
  std::string title;     ///< e.g. "Number of completed transactions"
  std::string x_label;   ///< "TPS" or "#sites"
  std::string y_label;   ///< e.g. "completed TPS"
  core::SeriesFn series;
  /// Protocols plotted (graph-CPU figures exclude locking).
  std::vector<core::ProtocolKind> protocols = {
      core::ProtocolKind::kLocking, core::ProtocolKind::kPessimistic,
      core::ProtocolKind::kOptimistic};
};

inline core::SeriesFn CompletedTps() {
  return [](const core::MetricsSnapshot& m) { return m.completed_tps; };
}
inline core::SeriesFn AbortRate() {
  return [](const core::MetricsSnapshot& m) { return m.abort_rate; };
}
inline core::SeriesFn GraphCpu() {
  return
      [](const core::MetricsSnapshot& m) { return m.graph_cpu_utilization; };
}
inline core::SeriesFn ReadOnlyResponse() {
  return [](const core::MetricsSnapshot& m) {
    return m.read_only_response.Mean();
  };
}
inline core::SeriesFn UpdateResponse() {
  return
      [](const core::MetricsSnapshot& m) { return m.update_response.Mean(); };
}
inline core::SeriesFn CommitToComplete() {
  return [](const core::MetricsSnapshot& m) {
    return m.commit_to_complete.Mean();
  };
}

/// The numbers of the figures in `lists`: what a study's --figure accepts
/// besides 0.
template <typename... Lists>
std::vector<int> FigureNumbers(const Lists&... lists) {
  std::vector<int> numbers;
  for (const std::vector<FigureSpec>* figures : {&lists...}) {
    for (const FigureSpec& spec : *figures) numbers.push_back(spec.number);
  }
  return numbers;
}

/// Prints the requested figures (all when `figure` is 0).
void PrintFigures(const std::vector<core::StudyPoint>& points,
                  const std::vector<FigureSpec>& figures, int figure);

/// Prints the auxiliary diagnostics the paper discusses in prose (disk and
/// network utilization, §4.1.1/§4.2).
void PrintUtilizationAppendix(const std::vector<core::StudyPoint>& points);

}  // namespace lazyrep::bench

#endif  // LAZYREP_BENCH_PAPER_FIGURES_H_
