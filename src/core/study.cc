#include "core/study.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <mutex>
#include <utility>

#include "core/history.h"
#include "core/parallel.h"
#include "core/system.h"
#include "net/topology.h"
#include "sim/check.h"
#include "sim/random.h"
#include "trace/trace_sink.h"

namespace lazyrep::core {

namespace {

/// Datacenter ordinal of every site for the trace block's site map: the
/// depth-1 topology group (the "dc<i>" tier of geo topologies), densified
/// in site order. A flat star has no depth-1 groups — every site maps to
/// datacenter 0.
trace::PointMeta MakePointMeta(const RunSpec& spec, size_t index) {
  trace::PointMeta meta;
  meta.point_index = static_cast<uint32_t>(index);
  meta.protocol = static_cast<uint32_t>(spec.protocol);
  meta.x = spec.x;
  meta.seed = spec.config.seed;
  net::Topology topo = spec.config.BuildTopology();
  meta.dc_of_site = net::DatacenterOrdinals(topo, spec.config.num_sites);
  return meta;
}

}  // namespace

uint64_t DerivePointSeed(const std::string& study_name, ProtocolKind protocol,
                         double x, uint64_t base_seed) {
  uint64_t h = 0x243f6a8885a308d3ULL;  // domain tag (pi), not tunable
  h = HashString(h, study_name.data(), study_name.size());
  h = HashCombine(h, static_cast<uint64_t>(protocol));
  uint64_t x_bits = 0;
  static_assert(sizeof(x_bits) == sizeof(x));
  std::memcpy(&x_bits, &x, sizeof(x_bits));
  h = HashCombine(h, x_bits);
  return HashCombine(h, base_seed);
}

std::vector<MetricsSnapshot> RunAll(
    const std::vector<RunSpec>& specs, int jobs, bool check_serializability,
    const std::function<void(size_t, const MetricsSnapshot&)>& on_done,
    bool post_run_audit, const std::string& trace_path) {
  std::vector<MetricsSnapshot> snaps(specs.size());
  const bool tracing = !trace_path.empty();
  std::vector<std::string> shards(tracing ? specs.size() : 0);
  std::mutex done_mu;
  ParallelFor(jobs, specs.size(), [&](size_t i) {
    System system(specs[i].config, specs[i].protocol);
    if (specs[i].make_workload) {
      system.set_workload_source(specs[i].make_workload());
    }
    HistoryRecorder history;
    if (check_serializability) system.set_history(&history);
    std::unique_ptr<trace::TraceSink> sink;
    if (tracing) {
      shards[i] = trace::ShardPath(trace_path, i);
      std::string err;
      sink = trace::TraceSink::Open(shards[i], MakePointMeta(specs[i], i),
                                    &err);
      LAZYREP_CHECK_MSG(sink != nullptr, err.c_str());
      system.set_trace(sink.get());
    }
    MetricsSnapshot snap = system.Run();
    if (sink != nullptr) {
      std::string err;
      LAZYREP_CHECK_MSG(sink->Finish(&err), err.c_str());
    }
    if (check_serializability) {
      std::string why;
      snap.serializable = history.CheckOneCopySerializable(&why) ? 1 : 0;
      snap.history_committed = history.committed_count();
      snap.history_reads = history.reads_recorded();
      snap.serializability_why = std::move(why);
    }
    if (post_run_audit) {
      // Run() has already drained: faults are healed and assured traffic
      // has landed, so divergence or a live transaction here is a bug, not
      // an in-flight artifact.
      std::string why;
      snap.replicas_converged = system.ReplicasConverged(&why) ? 1 : 0;
      snap.convergence_why = std::move(why);
      snap.stranded_txns = system.LiveTxns();
    }
    if (on_done) {
      std::lock_guard<std::mutex> lock(done_mu);
      on_done(i, snap);
    }
    snaps[i] = std::move(snap);
  });
  if (tracing) {
    std::string err;
    LAZYREP_CHECK_MSG(trace::MergeShards(trace_path, shards, &err),
                      err.c_str());
  }
  return snaps;
}

SystemConfig MakeChaosConfig(const ChaosOptions& opt, ProtocolKind protocol,
                             int schedule) {
  SystemConfig c;
  c.num_sites = 5;
  c.workload.items_per_site = 10;
  c.network.latency = 0.002;
  c.network.bandwidth_bps = 155e6;
  c.total_txns = opt.txns;
  c.seed = DerivePointSeed("chaos", protocol, static_cast<double>(schedule),
                           opt.seed);
  // The fault script draws from its own stream, decorrelated from the run
  // seed the workload generators consume.
  sim::RandomStream rng(c.seed ^ 0x9e3779b97f4a7c15ULL);
  c.tps = 40.0 + rng.Uniform(0.0, 20.0);
  const double horizon = static_cast<double>(opt.txns) / c.tps;
  const double fault_window = std::max(0.4, horizon * 0.7);

  // Message faults: about half the schedules lose packets, fewer duplicate.
  if (rng.Chance(0.5)) c.fault.loss_prob = rng.Uniform(0.001, 0.03);
  if (rng.Chance(0.3)) c.fault.dup_prob = rng.Uniform(0.001, 0.02);

  // Crash mix: an MTBF rotation, scripted outages, or both. Scripted
  // windows land on distinct endpoints so they can never overlap
  // (FaultParams::Validate rejects same-endpoint overlap).
  if (rng.Chance(0.6)) {
    c.fault.site_mtbf = rng.Uniform(3.0, 12.0);
    c.fault.site_mttr = rng.Uniform(0.2, 1.0);
  }
  int scripted = static_cast<int>(rng.UniformInt(0, 2));
  int first_endpoint =
      scripted > 0 ? static_cast<int>(rng.UniformInt(0, c.num_sites - 1)) : 0;
  for (int i = 0; i < scripted; ++i) {
    fault::ScheduledCrash crash;
    crash.endpoint = (first_endpoint + i) % c.num_sites;
    crash.at = rng.Uniform(0.2, fault_window);
    crash.duration = rng.Uniform(0.1, 0.8);
    c.fault.crashes.push_back(crash);
  }

  // 0-2 partition windows, each cutting one or two sites off the rest.
  int parts = static_cast<int>(rng.UniformInt(0, 2));
  for (int i = 0; i < parts; ++i) {
    fault::ScheduledPartition part;
    int group_lead = static_cast<int>(rng.UniformInt(0, c.num_sites - 1));
    part.group.push_back(group_lead);
    if (rng.Chance(0.5)) part.group.push_back((group_lead + 1) % c.num_sites);
    part.at = rng.Uniform(0.2, fault_window);
    part.duration = rng.Uniform(0.1, 0.6);
    c.fault.partitions.push_back(part);
  }

  // A schedule where every draw came up empty would disable the injector
  // outright (fault.enabled() false); give it one outage so every schedule
  // exercises the crash path.
  if (!c.fault.enabled()) {
    fault::ScheduledCrash crash;
    crash.endpoint = static_cast<int>(rng.UniformInt(0, c.num_sites - 1));
    crash.at = rng.Uniform(0.2, fault_window);
    crash.duration = rng.Uniform(0.2, 0.8);
    c.fault.crashes.push_back(crash);
  }

  c.fault.amnesia = true;
  c.fault.checkpoint_interval = rng.Uniform(1.0, 5.0);
  c.Normalize();
  return c;
}

StudyRunner::StudyRunner(std::string name, ConfigFn make_config)
    : name_(std::move(name)),
      make_config_(std::move(make_config)),
      protocols_({ProtocolKind::kLocking, ProtocolKind::kPessimistic,
                  ProtocolKind::kOptimistic}) {}

void StudyRunner::set_protocols(std::vector<ProtocolKind> protocols) {
  protocols_ = std::move(protocols);
}

std::vector<StudyPoint> StudyRunner::Sweep(const std::vector<double>& xs,
                                           bool verbose) {
  // Specs are laid out in canonical order (protocol-major, xs as given);
  // RunAll returns snapshots by index, so the collected points stay in that
  // order no matter which worker finishes first.
  std::vector<StudyPoint> points;
  std::vector<RunSpec> specs;
  points.reserve(xs.size() * protocols_.size());
  specs.reserve(xs.size() * protocols_.size());
  for (ProtocolKind kind : protocols_) {
    for (double x : xs) {
      StudyPoint point;
      point.x = x;
      point.protocol = kind;
      points.push_back(point);
      RunSpec spec;
      spec.config = make_config_(x);
      spec.config.seed = DerivePointSeed(name_, kind, x, spec.config.seed);
      spec.protocol = kind;
      spec.x = x;
      specs.push_back(std::move(spec));
    }
  }
  std::function<void(size_t, const MetricsSnapshot&)> report;
  if (verbose) {
    report = [this, &points](size_t i, const MetricsSnapshot& snap) {
      std::fprintf(stderr, "[%s] %-11s x=%-7g completed=%.0f tps abort=%.3f"
                   " graph-cpu=%.2f\n",
                   name_.c_str(), ProtocolKindName(points[i].protocol),
                   points[i].x, snap.completed_tps, snap.abort_rate,
                   snap.graph_cpu_utilization);
    };
  }
  std::vector<MetricsSnapshot> snaps =
      RunAll(specs, jobs_, check_serializability_, report,
             /*post_run_audit=*/false, trace_path_);
  for (size_t i = 0; i < points.size(); ++i) {
    points[i].snap = std::move(snaps[i]);
  }
  return points;
}

void PrintFigure(const std::vector<StudyPoint>& points,
                 const std::string& figure_title, const std::string& x_label,
                 const std::string& y_label, const SeriesFn& series,
                 const std::vector<ProtocolKind>& protocols) {
  std::printf("\n%s\n", figure_title.c_str());
  std::printf("%-10s", x_label.c_str());
  for (ProtocolKind kind : protocols) {
    bool present = false;
    for (const StudyPoint& p : points) {
      if (p.protocol == kind) present = true;
    }
    if (present) std::printf(" %14s", ProtocolKindName(kind));
  }
  std::printf("    (%s)\n", y_label.c_str());
  // Collect distinct x values in order of first appearance.
  std::vector<double> xs;
  xs.reserve(points.size());
  for (const StudyPoint& p : points) {
    bool seen = false;
    for (double x : xs) {
      if (x == p.x) seen = true;
    }
    if (!seen) xs.push_back(p.x);
  }
  for (double x : xs) {
    std::printf("%-10g", x);
    for (ProtocolKind kind : protocols) {
      bool printed = false;
      for (const StudyPoint& p : points) {
        if (p.protocol == kind && p.x == x) {
          std::printf(" %14.4f", series(p.snap));
          printed = true;
          break;
        }
      }
      bool present = false;
      for (const StudyPoint& p : points) {
        if (p.protocol == kind) present = true;
      }
      if (!printed && present) std::printf(" %14s", "-");
    }
    std::printf("\n");
  }
  std::fflush(stdout);
}

Flags BenchOptions::FlagTable(unsigned fields, std::vector<int> figures) {
  constexpr uint64_t kMaxU64 = std::numeric_limits<uint64_t>::max();
  constexpr int kMaxInt = std::numeric_limits<int>::max();
  Flags flags;
  if (fields & kBenchTxns) {
    flags.Number("--txns=N", &txns, 1, db::kMaxTxnId, "transactions per point")
        .Env("LAZYREP_TXNS", &txns, 1, db::kMaxTxnId, "default of --txns");
  }
  if (fields & kBenchPoints) {
    flags
        .Number("--points=N", &max_points, 0, kMaxInt,
                "run at most N sweep values, endpoints kept (0 = all)")
        .Switch("--quick", &quick, "at most 3 sweep values unless --points");
  }
  if (fields & kBenchFigure) {
    LAZYREP_CHECK(!figures.empty());
    std::string want = "want 0 (all) or one of";
    for (int n : figures) {
      want += ' ';
      want += std::to_string(n);
    }
    figures.push_back(0);
    flags.Value(
        "--figure=N",
        [this, figures, want](std::string_view text, std::string* error) {
          return ParseNumber("--figure", text, 0, kMaxInt, &figure, error) &&
                 (std::count(figures.begin(), figures.end(), figure) > 0 ||
                  BadValue("--figure", text, want, error));
        },
        "print only figure N (default: every figure)");
  }
  if (fields & kBenchSeed) {
    flags.Number("--seed=N", &seed, 0, kMaxU64,
                 "base seed; each point derives its own from it");
  }
  if (fields & kBenchJobs) {
    flags
        .Number("--jobs=N", &jobs, 0, kMaxJobs,
                "worker threads (0 = every core)")
        .Env("LAZYREP_JOBS", &jobs, 0, kMaxJobs, "default of --jobs");
  }
  if (fields & kBenchSites) {
    flags.Number("--sites=N", &sites, 0,
                 int{std::numeric_limits<db::SiteId>::max()},
                 "fleet size (0 = the preset's)");
  }
  if (fields & kBenchProtocols) {
    flags.Value(
        "--protocols=lpoe",
        [this](std::string_view text, std::string* error) {
          constexpr std::string_view kLetters = "lpoe";  // ProtocolKind order
          if (text.empty() || text.find_first_not_of(kLetters) !=
                                  std::string_view::npos) {
            return BadValue("--protocols", text, "want letters from lpoe",
                            error);
          }
          protocols.clear();
          for (size_t i = 0; i < kLetters.size(); ++i) {
            if (text.find(kLetters[i]) != std::string_view::npos) {
              protocols.push_back(static_cast<ProtocolKind>(i));
            }
          }
          return true;
        },
        "letters of the protocols to run (l, p, o, e)");
  }
  if (fields & kBenchTrace) {
    flags.Text("--trace=FILE", &trace,
               "record every point's event trace into FILE");
  }
  return flags;
}

void BenchOptions::Apply(SystemConfig* config) const {
  if (sites > 0) config->num_sites = sites;
  config->Normalize();
}

std::vector<double> BenchOptions::Thin(std::vector<double> xs) const {
  const int budget = max_points > 0 ? max_points : quick ? 3 : 0;
  if (budget <= 0 || static_cast<size_t>(budget) >= xs.size()) {
    return xs;
  }
  std::vector<double> out;
  out.reserve(budget);
  for (int i = 0; i < budget; ++i) {
    size_t idx = (xs.size() - 1) * i / (budget - 1 == 0 ? 1 : budget - 1);
    if (out.empty() || out.back() != xs[idx]) out.push_back(xs[idx]);
  }
  return out;
}

}  // namespace lazyrep::core
