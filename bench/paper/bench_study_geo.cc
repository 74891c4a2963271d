// Geo-hierarchical topology study (DESIGN.md §S2): 24 sites spread over a
// 3-datacenter backbone, 2 metro stars per datacenter, 4 sites per metro.
// The metro/access layer keeps the OC-3 parameters of Table 1; the
// inter-datacenter backbone carries its own bandwidth and one-way latency.
//
// Two scenarios, every point audited for one-copy serializability:
//
//   G1-G3  backbone-latency sweep — completed TPS / update response / abort
//          rate as the backbone stretches from campus (5 ms) to
//          intercontinental (100 ms), all four protocols
//   G4     datacenter partition — dc0 is cut off the backbone mid-run via a
//          named-group partition ("dc0" vs the rest) and must heal: the run
//          is audited and the partition must actually drop traffic
//
// --report additionally emits one JSON object per point plus key=value
// summary lines (pipe through tools/bench_to_json for BENCH_GEO.json).

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

constexpr int kSites = 24;
constexpr double kTps = 300;

/// The 3-DC layout every scenario runs on; `bb_lat` is the one-way backbone
/// propagation latency in seconds.
core::SystemConfig GeoConfig(double bb_lat, uint64_t txns, uint64_t seed) {
  core::SystemConfig c;
  c.num_sites = kSites;
  c.workload.items_per_site = 20;  // 480 items
  c.tps = kTps;
  c.topology.kind = net::TopologySpec::Kind::kGeo;
  c.topology.datacenters = 3;
  c.topology.metros_per_dc = 2;
  c.topology.backbone_latency = bb_lat;
  c.total_txns = txns;
  c.seed = seed;
  return c;
}

bool AuditOk(const std::vector<core::StudyPoint>& points) {
  bool ok = true;
  for (const core::StudyPoint& p : points) {
    if (p.snap.serializable == 0) {
      std::fprintf(stderr, "AUDIT FAILURE: %s bb_lat=%g: %s\n",
                   core::ProtocolKindName(p.protocol), p.x,
                   p.snap.serializability_why.c_str());
      ok = false;
    }
  }
  return ok;
}

void ReportPoint(const char* sweep, double x, core::ProtocolKind kind,
                 const core::MetricsSnapshot& m) {
  std::printf(
      "{\"sweep\":\"%s\",\"x\":%g,\"protocol\":\"%s\","
      "\"completed_tps\":%.3f,\"abort_rate\":%.5f,"
      "\"upd_response_mean\":%.6f,\"ro_response_mean\":%.6f,"
      "\"net_mean\":%.5f,\"net_max\":%.5f,\"retransmissions\":%llu,"
      "\"partition_drops\":%llu,\"serializable\":%d}\n",
      sweep, x, core::ProtocolKindName(kind), m.completed_tps, m.abort_rate,
      m.update_response.Mean(), m.read_only_response.Mean(),
      m.mean_network_utilization, m.max_network_utilization,
      (unsigned long long)m.retransmissions,
      (unsigned long long)m.faults_injected_partition, m.serializable);
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<FigureSpec> figures = {
      {1, "Completed transactions vs backbone latency, geo study",
       "backbone latency (s)", "completed transactions per second",
       CompletedTps(), kFourWay},
      {2, "Update response time vs backbone latency, geo study",
       "backbone latency (s)", "update start to commit time (seconds)",
       UpdateResponse(), kFourWay},
      {3, "Abort rate vs backbone latency, geo study", "backbone latency (s)",
       "abort rate", AbortRate(), kFourWay},
  };
  std::vector<int> numbers = FigureNumbers(figures);
  numbers.push_back(4);  // G4, the partition table, prints at every --figure
  core::BenchOptions opt;
  opt.protocols = kFourWay;
  bool report = false;
  opt.FlagTable(core::kBenchStudy | core::kBenchSites, numbers)
      .Switch("--report", &report,
              "add JSON and key=value lines for bench_to_json")
      .Parse(argc, argv);

  std::printf(
      "Geo topology study — %d sites over 3 DCs x 2 metros, %.0f TPS offered, "
      "%llu transactions per point, serializability audit on\n",
      kSites, kTps, (unsigned long long)opt.txns);

  // -- G1-G3: backbone latency sweep ------------------------------------------
  core::StudyRunner runner("geo-backbone", [&](double bb_lat) {
    core::SystemConfig c = GeoConfig(bb_lat, opt.txns, opt.seed);
    opt.Apply(&c);
    return c;
  });
  runner.set_protocols(opt.protocols);
  runner.set_jobs(opt.jobs);
  if (!opt.trace.empty()) runner.set_trace_path(opt.trace);
  runner.set_check_serializability(true);
  std::vector<double> bb_lat = {0.005, 0.02, 0.05, 0.1};
  std::vector<core::StudyPoint> points = runner.Sweep(opt.Thin(bb_lat));
  PrintFigures(points, figures, opt.figure);

  // -- G4: datacenter partition -----------------------------------------------
  // dc0 falls off the backbone for a third of the nominal run and must heal.
  double run_secs = static_cast<double>(opt.txns) / kTps;
  std::vector<core::RunSpec> specs;
  for (core::ProtocolKind kind : opt.protocols) {
    core::SystemConfig c = GeoConfig(
        0.02, opt.txns, core::DerivePointSeed("geo-partition", kind, 1, opt.seed));
    fault::ScheduledPartition part;
    part.groups = {"dc0"};
    part.at = run_secs / 3;
    part.duration = run_secs / 3;
    c.fault.partitions.push_back(std::move(part));
    opt.Apply(&c);
    specs.push_back({c, kind});
  }
  std::vector<core::MetricsSnapshot> part_snaps = core::RunAll(
      specs, opt.jobs, /*check_serializability=*/true, {},
      /*post_run_audit=*/false,
      opt.trace.empty() ? std::string() : opt.trace + ".partition");

  std::printf("\nFigure 4: Datacenter partition (dc0 isolated for [%.1f, %.1f) s), geo study\n",
              run_secs / 3, 2 * run_secs / 3);
  std::printf("%-14s %14s %12s %12s %16s %14s\n", "protocol", "completed_tps",
              "abort_rate", "upd_resp_s", "partition_drops", "serializable");
  bool partition_ok = true;
  for (size_t i = 0; i < specs.size(); ++i) {
    const core::MetricsSnapshot& m = part_snaps[i];
    std::printf("%-14s %14.3f %12.5f %12.6f %16llu %14d\n",
                core::ProtocolKindName(specs[i].protocol), m.completed_tps,
                m.abort_rate, m.update_response.Mean(),
                (unsigned long long)m.faults_injected_partition,
                m.serializable);
    if (m.serializable == 0) {
      std::fprintf(stderr, "AUDIT FAILURE: %s under dc0 partition: %s\n",
                   core::ProtocolKindName(specs[i].protocol),
                   m.serializability_why.c_str());
      partition_ok = false;
    }
    // A partition that never dropped a leg did not test anything.
    if (m.faults_injected_partition == 0) {
      std::fprintf(stderr, "PARTITION INERT: %s saw no dropped legs\n",
                   core::ProtocolKindName(specs[i].protocol));
      partition_ok = false;
    }
  }

  bool ok = AuditOk(points) && partition_ok;
  std::printf("serializability audit: %s\n", ok ? "all points pass" : "FAIL");

  if (report) {
    for (const core::StudyPoint& p : points) {
      ReportPoint("bb_lat", p.x, p.protocol, p.snap);
    }
    for (size_t i = 0; i < specs.size(); ++i) {
      ReportPoint("dc_partition", 0.02, specs[i].protocol, part_snaps[i]);
    }
    std::printf("geo.sites=%d\n", kSites);
    std::printf("geo.topology=%s\n",
                GeoConfig(0.02, opt.txns, opt.seed).topology.ToString().c_str());
    std::printf("geo.tps=%g\n", kTps);
    std::printf("geo.txns_per_point=%llu\n", (unsigned long long)opt.txns);
    std::printf("geo.audit_ok=%d\n", ok ? 1 : 0);
  }
  return ok ? 0 : 2;
}
