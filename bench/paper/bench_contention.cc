// Reproduces the Appendix analysis: Theorem 1 predicts the expected number
// of conflicts a transaction participates in at its origination site,
//   E[C] = beta * TPS / |DB|.
// The bench prints the analytic prediction across the studies' operating
// ranges and cross-checks the proportionality against simulation: measured
// per-transaction conflict encounters (lock waits + graph unions observed by
// readers) should scale linearly in TPS/|DB|.

#include <cstdio>
#include <limits>
#include <vector>

#include "analysis/contention_model.h"
#include "core/config.h"
#include "core/flags.h"
#include "core/system.h"

using namespace lazyrep;

int main(int argc, char** argv) {
  uint64_t txns = 4000;
  core::Flags()
      .Number("--txns=N", &txns, 1, std::numeric_limits<uint64_t>::max(),
              "transactions per run (default 4000)")
      .Parse(argc, argv);

  std::printf("Appendix, Theorem 1: E[C] = beta * TPS/|DB|\n\n");

  analysis::ContentionParams params;  // Table 1 mix
  std::printf("beta components: p_u=%.2f p_wr=%.2f #ops=%.0f\n",
              params.p_update, params.p_write, params.num_ops);

  // Analytic table over the OC-3 operating range, using lifetimes measured
  // from a low-load calibration run.
  core::SystemConfig calib = core::SystemConfig::Oc3();
  calib.tps = 400;
  calib.total_txns = txns;
  core::System calib_sys(calib, core::ProtocolKind::kOptimistic);
  core::MetricsSnapshot calib_snap = calib_sys.Run();
  params.update_lifetime = calib_snap.update_response.Mean();
  params.read_only_lifetime = calib_snap.read_only_response.Mean();
  std::printf("calibrated lifetimes: l_u=%.4fs l_r=%.4fs -> beta=%.4f\n\n",
              params.update_lifetime, params.read_only_lifetime,
              analysis::ContentionBeta(params));

  std::printf("%-8s %-8s %12s %12s %16s %16s\n", "TPS", "|DB|", "E[C]",
              "Pr(wait)", "sim waits/txn", "sim E[C]/E[C]");
  std::vector<std::pair<double, int>> grid = {
      {400, 2000}, {800, 2000}, {1600, 2000}, {2400, 2000},
      {400, 400},  {800, 400},
  };
  for (auto [tps, db] : grid) {
    core::SystemConfig c = core::SystemConfig::Oc3();
    c.num_sites = db / c.workload.items_per_site;
    c.tps = tps;
    c.total_txns = txns;
    c.Normalize();
    core::System sys(c, core::ProtocolKind::kOptimistic);
    core::MetricsSnapshot m = sys.Run();
    // Conflict encounters observed at origination sites: lock waits per
    // submitted transaction (each wait is one materialized conflict).
    double sim_conflicts =
        m.submitted > 0 ? static_cast<double>(m.lock_waits) / m.submitted : 0;
    double ec = analysis::ExpectedContention(params, tps, db);
    std::printf("%-8.0f %-8d %12.4f %12.4f %16.4f %16.3f\n", tps, db, ec,
                analysis::ApproxWaitProbability(params, tps, db),
                sim_conflicts, ec > 0 ? sim_conflicts / ec : 0);
  }
  std::printf(
      "\nThe last column should be roughly constant across rows: measured\n"
      "conflicts scale with TPS/|DB| as Theorem 1 predicts (the constant\n"
      "differs from 1 because lock waits undercount conflicts that never\n"
      "block, and lifetimes lengthen slightly with load).\n");
  return 0;
}
