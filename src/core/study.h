#ifndef LAZYREP_CORE_STUDY_H_
#define LAZYREP_CORE_STUDY_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/flags.h"
#include "core/metrics.h"

namespace lazyrep::core {

class WorkloadSource;

/// One measured point of a study: protocol × sweep value.
struct StudyPoint {
  double x = 0;  ///< the swept parameter (submitted TPS, or #sites)
  ProtocolKind protocol = ProtocolKind::kLocking;
  MetricsSnapshot snap;
};

/// Derives the RNG seed of one study point from its identity — study name,
/// protocol, sweep value, and the study's base seed — via a splitmix64 hash
/// chain. Because the seed depends only on what the point *is* (never on its
/// position in the sweep, the set of selected points, or which worker thread
/// ran it), results are bit-identical under any --jobs level, point ordering,
/// or sweep subset, and distinct points get decorrelated random streams.
uint64_t DerivePointSeed(const std::string& study_name, ProtocolKind protocol,
                         double x, uint64_t base_seed);

/// One fully-specified simulation run: configuration + protocol.
struct RunSpec {
  SystemConfig config;
  ProtocolKind protocol = ProtocolKind::kOptimistic;
  /// The swept parameter, recorded in the point's trace block header for
  /// offline labeling (no effect on the run itself).
  double x = 0;
  /// When set, RunAll installs the returned source on the System before
  /// Run() — the trace-replay path (replay::MakeReplaySpec builds these).
  /// Called once per run, possibly from a worker thread, so it must be a
  /// pure factory. Null (the default) keeps the built-in Poisson generator.
  std::function<std::unique_ptr<WorkloadSource>()> make_workload = nullptr;
};

/// Runs every spec (each an independent, self-contained System) across
/// `jobs` worker threads (0 = hardware_concurrency, 1 = inline/serial) and
/// returns their snapshots in spec order regardless of completion order.
/// With `check_serializability`, each run records its history and the
/// snapshot's serializability fields report the per-run MVSG verdict.
/// `on_done(i, snap)`, when given, fires once per finished spec under an
/// internal mutex (progress reporting). With `post_run_audit`, each
/// snapshot's replica-audit fields (replicas_converged, stranded_txns,
/// convergence_why) are filled after the run's drain: with faults healed
/// and propagation quiesced, every replica must hold the same version and
/// no transaction may be stranded mid-coordination.
///
/// With a non-empty `trace_path`, every run records its per-transaction
/// event trace (DESIGN.md §4.8): each worker writes its point to a private
/// shard file which are merged — in spec order, shards deleted — into
/// `trace_path` once all runs finish, so the bytes are identical at any
/// `jobs` level. I/O failure while tracing is fatal (LAZYREP_CHECK).
std::vector<MetricsSnapshot> RunAll(
    const std::vector<RunSpec>& specs, int jobs,
    bool check_serializability = false,
    const std::function<void(size_t, const MetricsSnapshot&)>& on_done = {},
    bool post_run_audit = false, const std::string& trace_path = {});

/// Runs a parameter sweep for each protocol and collects the paper's
/// metrics. The benches use one StudyRunner per study (OC-3, OC-1, OC-1*,
/// vsN) and print the per-figure series from the same collected points.
class StudyRunner {
 public:
  /// `make_config` maps a sweep value to a full configuration. It may be
  /// called concurrently from worker threads and must be a pure function of
  /// `x` (the bench lambdas only read captured options, which qualifies).
  using ConfigFn = std::function<SystemConfig(double x)>;

  StudyRunner(std::string name, ConfigFn make_config);

  /// Protocols to run (default: all three).
  void set_protocols(std::vector<ProtocolKind> protocols);

  /// Worker threads for Sweep: 0 = hardware_concurrency (the default),
  /// 1 = today's serial behavior (the sweep runs inline on the caller).
  void set_jobs(int jobs) { jobs_ = jobs; }

  /// Fleet-wide serializability audit: every point runs with a
  /// HistoryRecorder attached and its MVSG verdict lands in the point's
  /// MetricsSnapshot (serializable / history_committed / history_reads).
  void set_check_serializability(bool on) { check_serializability_ = on; }

  /// Per-transaction event tracing: every point of the sweep records its
  /// trace, merged into one file at `path` in canonical point order
  /// (lazyrep_trace reads it back). Empty = off, the default.
  void set_trace_path(std::string path) { trace_path_ = std::move(path); }

  /// Runs every (protocol, x) combination. When `verbose`, prints one
  /// progress line per point to stderr (mutex-guarded; under --jobs > 1 the
  /// lines appear in completion order). The returned points are always in
  /// canonical order — protocols in set_protocols order, xs in argument
  /// order — independent of which worker finished first.
  std::vector<StudyPoint> Sweep(const std::vector<double>& xs,
                                bool verbose = true);

  const std::string& name() const { return name_; }

 private:
  std::string name_;
  ConfigFn make_config_;
  std::vector<ProtocolKind> protocols_;
  int jobs_ = 0;
  bool check_serializability_ = false;
  std::string trace_path_;
};

/// Chaos-audit knobs (bench_chaos). Every schedule is one small fleet put
/// through a randomized mix of site crashes (scripted and MTBF-driven),
/// network partitions, message loss and duplication — with amnesia crash
/// semantics on, so crashes wipe volatile state and recovery replays the
/// WAL — then audited for one-copy serializability, replica convergence
/// and liveness.
struct ChaosOptions {
  uint64_t txns = 400;  ///< transactions per schedule
  uint64_t seed = 1;    ///< base seed; schedules derive from it by identity
};

/// Builds the fully-specified configuration of chaos schedule `schedule`
/// for `protocol`. A pure function of its arguments: the schedule's fault
/// script and the run seed both derive from
/// DerivePointSeed("chaos", protocol, schedule, opt.seed), so the same
/// (options, protocol, schedule) triple always produces a bit-identical
/// run regardless of --jobs, scheduling order, or which subset of
/// schedules is selected. Every generated script passes
/// FaultParams::Validate and injects at least one fault.
SystemConfig MakeChaosConfig(const ChaosOptions& opt, ProtocolKind protocol,
                             int schedule);

/// Extracts the y value a figure plots from a measured point.
using SeriesFn = std::function<double(const MetricsSnapshot&)>;

/// Prints one figure: a header, then per-protocol series as aligned columns
/// of (x, y) pairs — the same rows/series the paper's plots report.
void PrintFigure(const std::vector<StudyPoint>& points,
                 const std::string& figure_title, const std::string& x_label,
                 const std::string& y_label, const SeriesFn& series,
                 const std::vector<ProtocolKind>& protocols = {
                     ProtocolKind::kLocking, ProtocolKind::kPessimistic,
                     ProtocolKind::kOptimistic});

/// Largest accepted --jobs (benches, LAZYREP_JOBS and the CLI).
inline constexpr int kMaxJobs = 1024;

/// BenchOptions fields as a bit set. A bench names the fields it reads, and
/// each brings its rows to the bench's flag table.
enum BenchField : unsigned {
  kBenchTxns = 1u << 0,       ///< --txns=N and LAZYREP_TXNS
  kBenchPoints = 1u << 1,     ///< --points=N and --quick
  kBenchFigure = 1u << 2,     ///< --figure=N
  kBenchSeed = 1u << 3,       ///< --seed=N
  kBenchJobs = 1u << 4,       ///< --jobs=N and LAZYREP_JOBS
  kBenchSites = 1u << 5,      ///< --sites=N
  kBenchProtocols = 1u << 6,  ///< --protocols=lpoe
  kBenchTrace = 1u << 7,      ///< --trace=FILE
  /// What every sweep study reads; fixed-fleet studies add kBenchSites.
  kBenchStudy = kBenchTxns | kBenchPoints | kBenchFigure | kBenchSeed |
                kBenchJobs | kBenchProtocols | kBenchTrace,
};

/// The options bench binaries share. A bench sets its own defaults (a
/// different protocol set, fewer transactions), then parses the flag table
/// of the fields it reads.
struct BenchOptions {
  uint64_t txns = 3000;        ///< transactions per point
  int max_points = 0;          ///< 0 = all sweep values
  int figure = 0;              ///< 0 = print every figure of the study
  uint64_t seed = 1;
  int jobs = 0;                ///< worker threads; 0 = hardware_concurrency
  /// Fleet-size override for fixed-fleet studies (0 = the preset's count).
  int sites = 0;
  bool quick = false;          ///< at most 3 sweep values unless max_points
  std::vector<ProtocolKind> protocols = {ProtocolKind::kLocking,
                                         ProtocolKind::kPessimistic,
                                         ProtocolKind::kOptimistic};
  /// --trace=FILE: record per-transaction event traces of every point into
  /// FILE (empty = tracing off).
  std::string trace;

  /// The flag table of `fields` (BenchField bits), bound to this object.
  /// `figures` lists the figure numbers the study prints: --figure accepts
  /// those and 0. The bench adds its own rows, then calls Parse.
  Flags FlagTable(unsigned fields, std::vector<int> figures = {});
  /// Applies the sites override when set and re-normalizes. Fixed-fleet
  /// benches call this at the end of their make_config lambdas.
  void Apply(SystemConfig* config) const;
  /// Thins `xs` to at most max_points (keeping endpoints) and applies quick.
  std::vector<double> Thin(std::vector<double> xs) const;
};

}  // namespace lazyrep::core

#endif  // LAZYREP_CORE_STUDY_H_
