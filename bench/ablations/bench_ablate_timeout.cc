// Ablation A2 (§3): sensitivity to the deadlock-timeout interval.
//
// "Deadlocks are managed by a timeout mechanism... our experiments with
// changing this parameter showed relatively little sensitivity." This bench
// sweeps the timeout on the highest-contention study (OC-1*) for all three
// protocols.

#include <cstdio>

#include "core/config.h"
#include "core/study.h"
#include "core/system.h"

using namespace lazyrep;

int main(int argc, char** argv) {
  core::BenchOptions opt;
  opt.FlagTable(core::kBenchTxns | core::kBenchSeed | core::kBenchJobs)
      .Parse(argc, argv);
  const double kTps = 800;
  std::printf("A2: deadlock-timeout sweep, OC-1* at %.0f TPS, %llu "
              "transactions per point\n\n",
              kTps, (unsigned long long)opt.txns);
  std::printf("%-12s %-9s %12s %10s %14s %16s\n", "protocol", "timeout",
              "completed", "aborts", "lock timeouts", "ro response");
  std::vector<core::RunSpec> specs;
  std::vector<double> timeouts;
  for (core::ProtocolKind kind :
       {core::ProtocolKind::kLocking, core::ProtocolKind::kPessimistic,
        core::ProtocolKind::kOptimistic}) {
    for (double timeout : {0.25, 0.5, 1.0, 2.0}) {
      core::SystemConfig c = core::SystemConfig::Oc1Star();
      c.tps = kTps;
      c.total_txns = opt.txns;
      c.seed = opt.seed;
      c.timeout = timeout;
      specs.push_back({c, kind});
      timeouts.push_back(timeout);
    }
  }
  std::vector<core::MetricsSnapshot> ms = core::RunAll(specs, opt.jobs);
  for (size_t i = 0; i < specs.size(); ++i) {
    const core::MetricsSnapshot& m = ms[i];
    std::printf("%-12s %-9.2f %12.1f %9.2f%% %14llu %13.3f s\n",
                core::ProtocolKindName(specs[i].protocol), timeouts[i],
                m.completed_tps, 100 * m.abort_rate,
                (unsigned long long)m.lock_timeouts,
                m.read_only_response.Mean());
  }
  std::printf(
      "\nReading (§3): the graph protocols show the paper's 'relatively\n"
      "little sensitivity' (their waits resolve at the graph site); the\n"
      "locking protocol, whose congestion lives in lock queues, converts\n"
      "aborts into ever-longer waits as the timeout grows.\n");
  return 0;
}
