// Ablation A7: protocol robustness under injected faults.
//
// The paper assumes a reliable network and always-up sites. This bench asks
// what each protocol pays when that assumption breaks: a sweep over per-leg
// message-loss probability (reliable messaging absorbs the loss as latency
// and retransmission load) and a sweep over site MTBF (crashed sites abort
// in-flight coordination as unavailable until they recover).
//
// One JSON object per line per (protocol, point), for scripted plotting.

#include <cstdio>

#include "core/config.h"
#include "core/study.h"
#include "core/system.h"
#include "txn/transaction.h"

using namespace lazyrep;

namespace {

core::SystemConfig BaseConfig(uint64_t txns, uint64_t seed) {
  core::SystemConfig c = core::SystemConfig::Oc1Star();
  c.tps = 400;
  c.total_txns = txns;
  c.seed = seed;
  return c;
}

void PrintPoint(const char* sweep, double x, const core::MetricsSnapshot& m,
                core::ProtocolKind kind) {
  uint64_t unavailable = m.aborted_by_cause[static_cast<size_t>(
      txn::AbortCause::kUnavailable)];
  std::printf(
      "{\"sweep\":\"%s\",\"x\":%g,\"protocol\":\"%s\","
      "\"completed_tps\":%.3f,\"abort_rate\":%.5f,"
      "\"aborted_unavailable\":%llu,\"retransmissions\":%llu,"
      "\"send_failures\":%llu,\"faults_loss\":%llu,\"site_crashes\":%llu,"
      "\"mean_site_availability\":%.5f,\"upd_response_mean\":%.6f}\n",
      sweep, x, core::ProtocolKindName(kind), m.completed_tps, m.abort_rate,
      (unsigned long long)unavailable,
      (unsigned long long)m.retransmissions,
      (unsigned long long)m.msg_send_failures,
      (unsigned long long)m.faults_injected_loss,
      (unsigned long long)m.site_crashes, m.mean_site_availability,
      m.update_response.Mean());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  core::BenchOptions opt;
  opt.FlagTable(core::kBenchTxns | core::kBenchSeed | core::kBenchJobs)
      .Parse(argc, argv);
  const core::ProtocolKind kinds[] = {core::ProtocolKind::kLocking,
                                      core::ProtocolKind::kPessimistic,
                                      core::ProtocolKind::kOptimistic};

  std::vector<core::RunSpec> specs;
  std::vector<const char*> sweeps;
  std::vector<double> xs;

  // Sweep 1: per-leg message-loss probability, sites always up.
  for (core::ProtocolKind kind : kinds) {
    for (double loss : {0.0, 0.001, 0.01, 0.05, 0.1}) {
      core::SystemConfig c = BaseConfig(opt.txns, opt.seed);
      c.fault.loss_prob = loss;
      specs.push_back({c, kind});
      sweeps.push_back("loss");
      xs.push_back(loss);
    }
  }

  // Sweep 2: site MTBF (exponential crash/recovery, 1 s mean outage),
  // perfect links.
  for (core::ProtocolKind kind : kinds) {
    for (double mtbf : {0.0, 120.0, 60.0, 30.0, 15.0}) {
      core::SystemConfig c = BaseConfig(opt.txns, opt.seed);
      c.fault.site_mtbf = mtbf;
      c.fault.site_mttr = 1.0;
      specs.push_back({c, kind});
      sweeps.push_back("mtbf");
      xs.push_back(mtbf);
    }
  }

  std::vector<core::MetricsSnapshot> ms = core::RunAll(specs, opt.jobs);
  for (size_t i = 0; i < specs.size(); ++i) {
    PrintPoint(sweeps[i], xs[i], ms[i], specs[i].protocol);
  }
  return 0;
}
