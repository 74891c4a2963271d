// Chaos audit + ablation A9: crash-recovery correctness under randomized
// fault schedules.
//
// Default mode runs N randomized schedules (MakeChaosConfig: scripted and
// MTBF-driven site crashes with amnesia semantics, network partitions,
// message loss/duplication) for every selected protocol and reports three
// invariants per run:
//   serializable  - the fleet-wide MVSG audit found no cycle,
//   converged     - after faults heal and propagation drains, every replica
//                   of every item holds the same version,
//   stranded      - transactions still live after the drain (liveness; must
//                   be zero).
// With --check the process exits nonzero on the first violated invariant,
// which is what the nightly chaos workflow gates on.
//
// --a9 instead sweeps the mean outage duration (MTTR) at a fixed crash rate
// and reports what recovery itself costs: completed log replays, replay
// time, catch-up installs, availability, and throughput.
//
// Output is one JSON object per line in spec order, byte-identical at any
// --jobs level (schedules derive their seeds from identity, never from
// scheduling).

#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/study.h"
#include "core/system.h"

using namespace lazyrep;

namespace {

struct ChaosCli {
  int schedules = 20;
  int first = 0;  ///< first schedule index (sharding / repro of one schedule)
  bool check = false;
  bool a9 = false;
  core::ChaosOptions chaos;
};

void PrintChaosPoint(int schedule, core::ProtocolKind kind,
                     const core::MetricsSnapshot& m) {
  std::printf(
      "{\"schedule\":%d,\"protocol\":\"%s\",\"serializable\":%d,"
      "\"converged\":%d,\"stranded\":%llu,\"committed\":%llu,"
      "\"aborted\":%llu,\"site_crashes\":%llu,\"recoveries\":%llu,"
      "\"replay_mean\":%.6f,\"catchup_installs\":%llu,"
      "\"indoubt_commit\":%llu,\"indoubt_abort\":%llu,"
      "\"partitions\":%llu,\"partition_drops\":%llu,"
      "\"wal_forces\":%llu,\"wal_checkpoints\":%llu}\n",
      schedule, core::ProtocolKindName(kind), m.serializable,
      m.replicas_converged, (unsigned long long)m.stranded_txns,
      (unsigned long long)m.committed, (unsigned long long)m.aborted,
      (unsigned long long)m.site_crashes,
      (unsigned long long)m.site_recoveries, m.recovery_replay.Mean(),
      (unsigned long long)m.catchup_installs,
      (unsigned long long)m.indoubt_resolved_commit,
      (unsigned long long)m.indoubt_resolved_abort,
      (unsigned long long)m.partitions_injected,
      (unsigned long long)m.faults_injected_partition,
      (unsigned long long)m.wal_forces,
      (unsigned long long)m.wal_checkpoints);
}

int RunChaos(const core::BenchOptions& opt, const ChaosCli& cli) {
  std::vector<core::RunSpec> specs;
  std::vector<int> schedule_of;
  specs.reserve(opt.protocols.size() * cli.schedules);
  for (core::ProtocolKind kind : opt.protocols) {
    for (int s = cli.first; s < cli.first + cli.schedules; ++s) {
      core::SystemConfig c = core::MakeChaosConfig(cli.chaos, kind, s);
      specs.push_back({c, kind});
      schedule_of.push_back(s);
    }
  }
  std::vector<core::MetricsSnapshot> ms =
      core::RunAll(specs, opt.jobs, /*check_serializability=*/true, {},
                   /*post_run_audit=*/true, opt.trace);

  int violations = 0;
  for (size_t i = 0; i < specs.size(); ++i) {
    PrintChaosPoint(schedule_of[i], specs[i].protocol, ms[i]);
    const core::MetricsSnapshot& m = ms[i];
    if (m.serializable != 1) {
      ++violations;
      std::fprintf(stderr,
                   "VIOLATION schedule=%d protocol=%s: not serializable: %s\n",
                   schedule_of[i], core::ProtocolKindName(specs[i].protocol),
                   m.serializability_why.c_str());
    }
    if (m.replicas_converged != 1) {
      ++violations;
      std::fprintf(stderr,
                   "VIOLATION schedule=%d protocol=%s: replicas diverged: %s\n",
                   schedule_of[i], core::ProtocolKindName(specs[i].protocol),
                   m.convergence_why.c_str());
    }
    if (m.stranded_txns != 0) {
      ++violations;
      std::fprintf(stderr,
                   "VIOLATION schedule=%d protocol=%s: %llu stranded txns\n",
                   schedule_of[i], core::ProtocolKindName(specs[i].protocol),
                   (unsigned long long)m.stranded_txns);
    }
  }
  // Aggregates in key=value form: bench_to_json lifts them to top-level
  // fields next to the per-run "runs" array.
  std::printf("chaos.schedules=%d\nchaos.protocols=%zu\nchaos.runs=%zu\n"
              "chaos.violations=%d\n",
              cli.schedules, opt.protocols.size(), specs.size(), violations);
  std::printf("chaos: %zu runs (%zu protocols x %d schedules), "
              "%d invariant violations\n",
              specs.size(), opt.protocols.size(), cli.schedules, violations);
  std::fflush(stdout);
  if (cli.check && violations > 0) return 1;
  return 0;
}

core::SystemConfig A9Config(const core::ChaosOptions& chaos,
                            core::ProtocolKind kind, double mttr) {
  core::SystemConfig c;
  c.num_sites = 5;
  c.workload.items_per_site = 10;
  c.network.latency = 0.002;
  c.network.bandwidth_bps = 155e6;
  c.tps = 50;
  c.total_txns = chaos.txns;
  c.fault.site_mtbf = 6.0;
  c.fault.site_mttr = mttr;
  c.fault.amnesia = true;
  c.fault.checkpoint_interval = 2.0;
  c.seed = core::DerivePointSeed("chaos-a9", kind, mttr, chaos.seed);
  c.Normalize();
  return c;
}

int RunA9(const core::BenchOptions& opt, const ChaosCli& cli) {
  const double mttrs[] = {0.25, 0.5, 1.0, 2.0, 4.0};
  std::vector<core::RunSpec> specs;
  std::vector<double> xs;
  for (core::ProtocolKind kind : opt.protocols) {
    for (double mttr : mttrs) {
      specs.push_back({A9Config(cli.chaos, kind, mttr), kind});
      xs.push_back(mttr);
    }
  }
  std::vector<core::MetricsSnapshot> ms =
      core::RunAll(specs, opt.jobs, /*check_serializability=*/true, {},
                   /*post_run_audit=*/true, opt.trace);
  for (size_t i = 0; i < specs.size(); ++i) {
    const core::MetricsSnapshot& m = ms[i];
    std::printf(
        "{\"sweep\":\"mttr\",\"x\":%g,\"protocol\":\"%s\","
        "\"serializable\":%d,\"converged\":%d,\"stranded\":%llu,"
        "\"completed_tps\":%.3f,\"abort_rate\":%.5f,"
        "\"site_crashes\":%llu,\"recoveries\":%llu,\"replay_mean\":%.6f,"
        "\"replay_max\":%.6f,\"catchup_installs\":%llu,"
        "\"wal_forces\":%llu,\"wal_checkpoints\":%llu,"
        "\"records_replayed\":%llu,\"mean_site_availability\":%.5f,"
        "\"min_site_availability\":%.5f,\"upd_response_mean\":%.6f}\n",
        xs[i], core::ProtocolKindName(specs[i].protocol), m.serializable,
        m.replicas_converged, (unsigned long long)m.stranded_txns,
        m.completed_tps, m.abort_rate, (unsigned long long)m.site_crashes,
        (unsigned long long)m.site_recoveries, m.recovery_replay.Mean(),
        m.recovery_replay.Max(), (unsigned long long)m.catchup_installs,
        (unsigned long long)m.wal_forces,
        (unsigned long long)m.wal_checkpoints,
        (unsigned long long)m.wal_records_replayed, m.mean_site_availability,
        m.min_site_availability, m.update_response.Mean());
  }
  std::fflush(stdout);
  if (cli.check) {
    for (const core::MetricsSnapshot& m : ms) {
      if (m.serializable != 1 || m.replicas_converged != 1 ||
          m.stranded_txns != 0) {
        return 1;
      }
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  core::BenchOptions opt;
  // Chaos runs want many short schedules, so the per-schedule transaction
  // count defaults low.
  opt.txns = core::ChaosOptions().txns;
  opt.protocols = {core::ProtocolKind::kLocking,
                   core::ProtocolKind::kPessimistic,
                   core::ProtocolKind::kOptimistic, core::ProtocolKind::kEager};
  ChaosCli cli;
  constexpr int kMaxInt = std::numeric_limits<int>::max();
  opt.FlagTable(core::kBenchTxns | core::kBenchSeed | core::kBenchJobs |
                core::kBenchProtocols | core::kBenchTrace)
      .Number("--schedules=N", &cli.schedules, 1, kMaxInt,
              "fault schedules per protocol (default 20)")
      .Number("--first=N", &cli.first, 0, kMaxInt,
              "index of the first schedule (default 0)")
      .Switch("--check", &cli.check, "exit 1 if any invariant is violated")
      .Switch("--a9", &cli.a9,
              "sweep the mean outage duration instead (ablation A9)")
      .Parse(argc, argv);
  cli.chaos = {opt.txns, opt.seed};
  return cli.a9 ? RunA9(opt, cli) : RunChaos(opt, cli);
}
