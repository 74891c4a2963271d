// The four-way study the paper's introduction argues from (§1): the three
// lazy protocols against the eager baseline (strict 2PL at every replica +
// two-phase commit). Three sweeps, every point audited for one-copy
// serializability:
//
//   E1-E3  OC-3 load sweep   — completed TPS / response times / abort rate
//   E4-E6  OC-1 load sweep   — the same curves on the continental network
//   E7-E8  update-mix sweep  — throughput and abort rate vs update fraction
//                              at fixed load (where eager availability
//                              collapses while lazy degrades gracefully)
//
// Figures are numbered E1..E8 via --figure=1..8 (0 = all).

#include <cstdio>

#include "bench/paper/figures.h"
#include "core/config.h"
#include "core/study.h"

using namespace lazyrep;
using namespace lazyrep::bench;

namespace {

const std::vector<core::ProtocolKind> kFourWay = {
    core::ProtocolKind::kLocking, core::ProtocolKind::kPessimistic,
    core::ProtocolKind::kOptimistic, core::ProtocolKind::kEager};

/// Returns false (and complains) when an audited point is not serializable.
bool AuditOk(const std::vector<core::StudyPoint>& points) {
  bool ok = true;
  for (const core::StudyPoint& p : points) {
    if (p.snap.serializable == 0) {
      std::fprintf(stderr, "AUDIT FAILURE: %s x=%g: %s\n",
                   core::ProtocolKindName(p.protocol), p.x,
                   p.snap.serializability_why.c_str());
      ok = false;
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<FigureSpec> oc3_figs = {
      {1, "Completed transactions, eager vs lazy, OC-3", "TPS",
       "completed transactions per second", CompletedTps(), kFourWay},
      {2, "Update response time, eager vs lazy, OC-3", "TPS",
       "update start to commit time (seconds)", UpdateResponse(), kFourWay},
      {3, "Abort rate, eager vs lazy, OC-3", "TPS", "abort rate", AbortRate(),
       kFourWay},
  };
  std::vector<FigureSpec> oc1_figs = {
      {4, "Completed transactions, eager vs lazy, OC-1", "TPS",
       "completed transactions per second", CompletedTps(), kFourWay},
      {5, "Update response time, eager vs lazy, OC-1", "TPS",
       "update start to commit time (seconds)", UpdateResponse(), kFourWay},
      {6, "Abort rate, eager vs lazy, OC-1", "TPS", "abort rate", AbortRate(),
       kFourWay},
  };
  std::vector<FigureSpec> mix_figs = {
      {7, "Completed transactions vs update mix, OC-3 at 600 TPS",
       "update fraction", "completed transactions per second", CompletedTps(),
       kFourWay},
      {8, "Abort rate vs update mix, OC-3 at 600 TPS", "update fraction",
       "abort rate", AbortRate(), kFourWay},
  };
  core::BenchOptions opt;
  // This is the four-way comparison: all four protocols unless --protocols
  // narrows the set.
  opt.protocols = kFourWay;
  opt.FlagTable(core::kBenchStudy | core::kBenchSites,
                FigureNumbers(oc3_figs, oc1_figs, mix_figs))
      .Parse(argc, argv);

  std::printf(
      "Eager-vs-lazy four-way study — %llu transactions per point, "
      "serializability audit on\n",
      (unsigned long long)opt.txns);

  // -- OC-3 load sweep --------------------------------------------------------
  core::StudyRunner oc3("eager-OC-3", [&](double tps) {
    core::SystemConfig c = core::SystemConfig::Oc3();
    c.tps = tps;
    c.total_txns = opt.txns;
    c.seed = opt.seed;
    opt.Apply(&c);
    return c;
  });
  oc3.set_protocols(opt.protocols);
  oc3.set_jobs(opt.jobs);
  if (!opt.trace.empty()) oc3.set_trace_path(opt.trace + ".oc3");
  oc3.set_check_serializability(true);
  std::vector<double> load = {200, 600, 1000, 1400, 1800, 2200, 2600};
  std::vector<core::StudyPoint> p_oc3 = oc3.Sweep(opt.Thin(load));

  // -- OC-1 load sweep --------------------------------------------------------
  core::StudyRunner oc1("eager-OC-1", [&](double tps) {
    core::SystemConfig c = core::SystemConfig::Oc1();
    c.tps = tps;
    c.total_txns = opt.txns;
    c.seed = opt.seed;
    opt.Apply(&c);
    return c;
  });
  oc1.set_protocols(opt.protocols);
  oc1.set_jobs(opt.jobs);
  if (!opt.trace.empty()) oc1.set_trace_path(opt.trace + ".oc1");
  oc1.set_check_serializability(true);
  std::vector<double> wan_load = {200, 600, 1000, 1400, 1800, 2200};
  std::vector<core::StudyPoint> p_oc1 = oc1.Sweep(opt.Thin(wan_load));

  // -- update-mix sweep at fixed load -----------------------------------------
  // x is the update-transaction fraction; the paper's default mix is 10%.
  core::StudyRunner mix("eager-mix", [&](double update_fraction) {
    core::SystemConfig c = core::SystemConfig::Oc3();
    c.tps = 600;
    c.workload.read_only_fraction = 1.0 - update_fraction;
    c.total_txns = opt.txns;
    c.seed = opt.seed;
    opt.Apply(&c);
    return c;
  });
  mix.set_protocols(opt.protocols);
  mix.set_jobs(opt.jobs);
  if (!opt.trace.empty()) mix.set_trace_path(opt.trace + ".mix");
  mix.set_check_serializability(true);
  std::vector<double> fractions = {0.05, 0.1, 0.2, 0.3, 0.5};
  std::vector<core::StudyPoint> p_mix = mix.Sweep(opt.Thin(fractions));

  PrintFigures(p_oc3, oc3_figs, opt.figure);
  PrintFigures(p_oc1, oc1_figs, opt.figure);
  PrintFigures(p_mix, mix_figs, opt.figure);

  bool ok = AuditOk(p_oc3) && AuditOk(p_oc1) && AuditOk(p_mix);
  std::printf("serializability audit: %s\n", ok ? "all points pass" : "FAIL");
  return ok ? 0 : 2;
}
