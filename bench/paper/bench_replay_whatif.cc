// Trace-driven what-if replay study (DESIGN.md §4.9).
//
// The methodological problem this quantifies: cross-protocol sweeps derive
// each point's seed from (study, protocol, x), so comparing protocols compares
// DIFFERENT sampled workloads — the measured "protocol effect" carries
// workload-sampling noise. Replay removes it: capture one workload under a
// baseline protocol with --trace, then re-execute the exact submission
// schedule and access sets under every protocol.
//
// Three stages, two captured workloads (an OC-3 flavored star and a 3-DC
// geo hierarchy):
//
//   1. round trip  — replay each capture under its own protocol/seed and
//                    require the bit-identical MetricsSnapshot (hex-float
//                    fingerprints); any drift is a fidelity bug and the
//                    process exits nonzero.
//   2. what-if grid — the captured workload under all four protocols, each
//                    run audited for one-copy serializability.
//   3. variance baseline — K fresh-seed re-samples per (workload, protocol)
//                    with the ordinary Poisson generator, to compare the
//                    workload-sampling spread against the fixed-workload
//                    protocol effect the grid measures.
//
// --report emits one JSON object per grid cell pairing the recorded and
// replayed runs, plus key=value summary lines (pipe through
// tools/bench_to_json for BENCH_REPLAY.json). Exits 2 on a round-trip
// mismatch or any serializability violation.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/study.h"
#include "replay/workload_script.h"
#include "trace/trace_reader.h"

using namespace lazyrep;

namespace {

const std::vector<core::ProtocolKind> kFourWay = {
    core::ProtocolKind::kLocking, core::ProtocolKind::kPessimistic,
    core::ProtocolKind::kOptimistic, core::ProtocolKind::kEager};

constexpr int kFreshSeeds = 5;

struct Workload {
  const char* name;
  core::SystemConfig config;
};

/// The two captured workloads. Both run open-loop at 30 loc-TPS per site so
/// the baseline (optimistic) operates below saturation with real contention.
std::vector<Workload> MakeWorkloads(uint64_t txns, uint64_t seed) {
  std::vector<Workload> w;
  {
    core::SystemConfig c;  // OC-3 star: Table-1 network defaults
    c.num_sites = 8;
    c.workload.items_per_site = 15;
    c.tps = 240;
    c.total_txns = txns;
    c.seed = core::DerivePointSeed("replay-whatif-oc3",
                                   core::ProtocolKind::kOptimistic, 240, seed);
    c.Normalize();
    w.push_back({"oc3", c});
  }
  {
    core::SystemConfig c;  // 3-DC geo hierarchy over a 20 ms backbone
    c.num_sites = 12;
    c.workload.items_per_site = 20;
    c.tps = 360;
    c.topology.kind = net::TopologySpec::Kind::kGeo;
    c.topology.datacenters = 3;
    c.topology.metros_per_dc = 2;
    c.topology.backbone_latency = 0.02;
    c.total_txns = txns;
    c.seed = core::DerivePointSeed("replay-whatif-geo",
                                   core::ProtocolKind::kOptimistic, 360, seed);
    c.Normalize();
    w.push_back({"geo", c});
  }
  return w;
}

/// Hex-float fingerprint: bit-exactness, not approximation.
std::string Fp(const core::MetricsSnapshot& m) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "%llu|%llu|%llu|%llu|%a|%a|%a|%a|%a|%llu|%llu|%d",
                (unsigned long long)m.submitted,
                (unsigned long long)m.committed,
                (unsigned long long)m.completed,
                (unsigned long long)m.aborted, m.completed_tps, m.abort_rate,
                m.duration, m.read_only_response.Mean(),
                m.update_response.Mean(), (unsigned long long)m.lock_waits,
                (unsigned long long)m.graph_tests, m.serializable);
  return buf;
}

void PrintRunFields(const core::MetricsSnapshot& m) {
  std::printf("{\"completed_tps\":%.3f,\"abort_rate\":%.5f,"
              "\"upd_response_mean\":%.6f,\"ro_response_mean\":%.6f,"
              "\"committed\":%llu,\"aborted\":%llu}",
              m.completed_tps, m.abort_rate, m.update_response.Mean(),
              m.read_only_response.Mean(), (unsigned long long)m.committed,
              (unsigned long long)m.aborted);
}

double Mean(const std::vector<double>& xs) {
  double s = 0;
  for (double x : xs) s += x;
  return xs.empty() ? 0 : s / static_cast<double>(xs.size());
}

double StdDev(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0;
  double m = Mean(xs), s = 0;
  for (double x : xs) s += (x - m) * (x - m);
  return std::sqrt(s / static_cast<double>(xs.size() - 1));
}

}  // namespace

int main(int argc, char** argv) {
  core::BenchOptions opt;
  bool report = false;
  std::string tmp = "/tmp";
  opt.FlagTable(core::kBenchTxns | core::kBenchSeed | core::kBenchJobs)
      .Switch("--report", &report,
              "add JSON and key=value lines for bench_to_json")
      .Text("--tmp=DIR", &tmp, "directory for the capture traces (/tmp)")
      .Parse(argc, argv);

  std::vector<Workload> workloads = MakeWorkloads(opt.txns, opt.seed);
  std::printf("Replay what-if study — %zu captured workloads x %zu protocols, "
              "%llu transactions per capture, %d fresh-seed re-samples, "
              "serializability audit on\n\n",
              workloads.size(), kFourWay.size(),
              (unsigned long long)opt.txns, kFreshSeeds);

  bool ok = true;
  struct Cell {
    std::string workload;
    core::ProtocolKind protocol;
    core::MetricsSnapshot recorded, replayed;
  };
  std::vector<Cell> cells;
  std::vector<std::string> kv;  // key=value report lines
  char line[256];

  for (const Workload& w : workloads) {
    // -- capture under the optimistic baseline, tracing on ------------------
    std::string trace_path =
        tmp + "/replay_whatif_" + w.name + ".trace";
    std::vector<core::MetricsSnapshot> rec = core::RunAll(
        {{w.config, core::ProtocolKind::kOptimistic}}, opt.jobs,
        /*check_serializability=*/true, {}, /*post_run_audit=*/false,
        trace_path);

    trace::TraceFile file;
    std::string error;
    if (!trace::ReadTraceFile(trace_path, &file, &error) ||
        file.points.empty()) {
      std::fprintf(stderr, "capture of %s failed: %s\n", w.name,
                   error.c_str());
      return 2;
    }
    auto script = std::make_shared<replay::WorkloadScript>();
    if (!replay::WorkloadScript::FromPoint(file.points[0],
                                           file.header.version, script.get(),
                                           &error)) {
      std::fprintf(stderr, "script extraction of %s failed: %s\n", w.name,
                   error.c_str());
      return 2;
    }
    std::remove(trace_path.c_str());

    // -- stage 1: round trip -------------------------------------------------
    std::vector<core::MetricsSnapshot> rt = core::RunAll(
        {replay::MakeReplaySpec(script, w.config,
                                core::ProtocolKind::kOptimistic)},
        opt.jobs, /*check_serializability=*/true);
    bool roundtrip_ok = Fp(rt[0]) == Fp(rec[0]);
    std::printf("%s: %llu submissions captured, round trip %s\n", w.name,
                (unsigned long long)script->total_submissions(),
                roundtrip_ok ? "bit-identical" : "MISMATCH");
    if (!roundtrip_ok) {
      std::fprintf(stderr,
                   "ROUND TRIP MISMATCH (%s):\n recorded %s\n replayed %s\n",
                   w.name, Fp(rec[0]).c_str(), Fp(rt[0]).c_str());
      ok = false;
    }
    std::snprintf(line, sizeof(line), "replay.%s.roundtrip_ok=%d", w.name,
                  roundtrip_ok ? 1 : 0);
    kv.push_back(line);

    // -- stage 2: the what-if grid -------------------------------------------
    std::vector<core::RunSpec> grid;
    for (core::ProtocolKind kind : kFourWay) {
      grid.push_back(replay::MakeReplaySpec(script, w.config, kind));
    }
    std::vector<core::MetricsSnapshot> snaps =
        core::RunAll(grid, opt.jobs, /*check_serializability=*/true);

    // -- stage 3: fresh-seed variance baseline -------------------------------
    // The conventional alternative to replay: re-sample the workload K times
    // per protocol and accept the seed-to-seed spread as noise.
    std::vector<core::RunSpec> fresh;
    for (core::ProtocolKind kind : kFourWay) {
      for (int k = 0; k < kFreshSeeds; ++k) {
        core::SystemConfig c = w.config;
        c.seed = core::DerivePointSeed(
            std::string("replay-whatif-fresh-") + w.name, kind, k + 1,
            opt.seed);
        fresh.push_back({c, kind});
      }
    }
    std::vector<core::MetricsSnapshot> fresh_snaps =
        core::RunAll(fresh, opt.jobs, /*check_serializability=*/true);

    std::printf("  %-12s %16s %22s %12s %13s\n", "protocol",
                "replayed_tps", "fresh_tps (mean±sd)", "abort_rate",
                "serializable");
    std::vector<double> replayed_tps, seed_sds;
    for (size_t i = 0; i < kFourWay.size(); ++i) {
      std::vector<double> fresh_tps;
      for (int k = 0; k < kFreshSeeds; ++k) {
        const core::MetricsSnapshot& f = fresh_snaps[i * kFreshSeeds + k];
        fresh_tps.push_back(f.completed_tps);
        if (f.serializable == 0) ok = false;
      }
      const core::MetricsSnapshot& m = snaps[i];
      std::printf("  %-12s %16.3f %15.3f ±%5.3f %12.5f %13d\n",
                  core::ProtocolKindName(kFourWay[i]), m.completed_tps,
                  Mean(fresh_tps), StdDev(fresh_tps), m.abort_rate,
                  m.serializable);
      if (m.serializable == 0) {
        std::fprintf(stderr, "AUDIT FAILURE: %s replay under %s: %s\n",
                     w.name, core::ProtocolKindName(kFourWay[i]),
                     m.serializability_why.c_str());
        ok = false;
      }
      replayed_tps.push_back(m.completed_tps);
      seed_sds.push_back(StdDev(fresh_tps));
      cells.push_back({w.name, kFourWay[i], rec[0], m});
    }
    // The decomposition: how does the knob effect compare to the noise the
    // knob comparison would carry without replay?
    double spread = *std::max_element(replayed_tps.begin(),
                                      replayed_tps.end()) -
                    *std::min_element(replayed_tps.begin(),
                                      replayed_tps.end());
    double noise = Mean(seed_sds);
    std::printf("  protocol effect (fixed workload): %.3f tps spread; "
                "workload-sampling noise: ±%.3f tps sd\n\n", spread, noise);
    std::snprintf(line, sizeof(line), "replay.%s.protocol_spread_tps=%.3f",
                  w.name, spread);
    kv.push_back(line);
    std::snprintf(line, sizeof(line), "replay.%s.seed_sd_tps=%.3f", w.name,
                  noise);
    kv.push_back(line);
  }

  std::printf("serializability audit: %s\n", ok ? "all points pass" : "FAIL");

  if (report) {
    for (const Cell& c : cells) {
      std::printf("{\"workload\":\"%s\",\"protocol\":\"%s\",\"recorded\":",
                  c.workload.c_str(), core::ProtocolKindName(c.protocol));
      PrintRunFields(c.recorded);
      std::printf(",\"replayed\":");
      PrintRunFields(c.replayed);
      std::printf(",\"serializable\":%d}\n", c.replayed.serializable);
    }
    for (const std::string& l : kv) std::printf("%s\n", l.c_str());
    std::printf("replay.cells=%zu\n", cells.size());
    std::printf("replay.fresh_seeds=%d\n", kFreshSeeds);
    std::printf("replay.txns_per_capture=%llu\n",
                (unsigned long long)opt.txns);
    std::printf("replay.audit_ok=%d\n", ok ? 1 : 0);
  }
  return ok ? 0 : 2;
}
