// lazyrep_cli — run one replication experiment from the command line.
//
// A downstream-user front-end over the library: every Table-1 parameter a
// study varies and every extension flag is reachable without writing C++.
// Prints the human-readable metrics block and, with --csv, appends one
// machine-readable row (with a header when the file is new) for scripting
// and plotting.
//
// Examples:
//   lazyrep_cli --protocol=optimistic --preset=oc3 --tps=1800 --txns=20000
//   lazyrep_cli --protocol=all --sites=12 --items=20 --tps=400 --csv=sweep.csv
//   lazyrep_cli --help

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <new>
#include <string>
#include <string_view>
#include <sys/stat.h>
#include <vector>

#include "core/config.h"
#include "core/flags.h"
#include "core/study.h"
#include "core/system.h"
#include "db/item_store.h"
#include "db/types.h"
#include "replay/workload_script.h"
#include "trace/trace_reader.h"

using namespace lazyrep;

namespace {

/// Splits `text` at every `sep` ("1,2" -> {"1", "2"}; "" -> {""}).
std::vector<std::string_view> Split(std::string_view text, char sep) {
  std::vector<std::string_view> fields;
  size_t start = 0;
  for (size_t pos; (pos = text.find(sep, start)) != std::string_view::npos;
       start = pos + 1) {
    fields.push_back(text.substr(start, pos - start));
  }
  fields.push_back(text.substr(start));
  return fields;
}

void AppendCsv(const std::string& path, const char* protocol,
               const core::SystemConfig& c, const core::MetricsSnapshot& m,
               int serializable) {
  struct stat st;
  bool fresh = stat(path.c_str(), &st) != 0 || st.st_size == 0;
  FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    std::exit(1);
  }
  if (fresh) {
    std::fprintf(
        f,
        "protocol,sites,items,tps,txns,seed,completed_tps,abort_rate,"
        "ro_mean,ro_ci95,ro_p95,upd_mean,upd_ci95,upd_p95,commit_complete,"
        "graph_cpu,disk_mean,net_mean,lock_timeouts,graph_rejections,"
        "serializable\n");
  }
  std::fprintf(f,
               "%s,%d,%d,%.0f,%llu,%llu,%.3f,%.5f,%.6f,%.6f,%.6f,%.6f,%.6f,"
               "%.6f,%.6f,%.4f,%.4f,%.4f,%llu,%llu,%d\n",
               protocol, c.num_sites, c.total_items(), c.tps,
               (unsigned long long)c.total_txns, (unsigned long long)c.seed,
               m.completed_tps, m.abort_rate, m.read_only_response.Mean(),
               m.read_only_response.HalfWidth95(),
               m.read_only_quantiles.P95(), m.update_response.Mean(),
               m.update_response.HalfWidth95(), m.update_quantiles.P95(),
               m.commit_to_complete.Mean(), m.graph_cpu_utilization,
               m.mean_disk_utilization, m.mean_network_utilization,
               (unsigned long long)m.lock_timeouts,
               (unsigned long long)m.graph_rejections, serializable);
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  core::SystemConfig config;
  config.num_sites = 10;
  config.tps = 200;
  config.total_txns = 10000;
  std::vector<core::ProtocolKind> protocols = {
      core::ProtocolKind::kOptimistic};
  std::string csv_path;
  std::string trace_path;
  std::string replay_path;
  int replay_point = 0;
  bool protocol_set = false;  // replay defaults to the recorded protocol
  bool seed_set = false;      // replay keeps an explicit --seed override
  bool check_serializability = false;
  bool quiet = false;
  int jobs = 1;  // serial by default; --jobs=0 means all cores
  constexpr int kMaxInt = std::numeric_limits<int>::max();
  constexpr int kMaxSite = std::numeric_limits<db::SiteId>::max();
  constexpr uint64_t kMaxU64 = std::numeric_limits<uint64_t>::max();
  constexpr double kMaxDouble = std::numeric_limits<double>::max();
  // Input errors exit 1: the CLI's exit 2 means a serializability violation.
  core::Flags(1)
      .Value("--protocol=NAME",
             [&](std::string_view v, std::string* error) {
               constexpr std::string_view kNames[] = {  // ProtocolKind order
                   "locking", "pessimistic", "optimistic", "eager"};
               protocols.clear();
               for (size_t i = 0; i < std::size(kNames); ++i) {
                 if (v == "all" || v == kNames[i]) {
                   protocols.push_back(static_cast<core::ProtocolKind>(i));
                 }
               }
               protocol_set = true;
               return !protocols.empty() ||
                      core::BadValue("--protocol", v,
                                     "want locking, pessimistic, optimistic, "
                                     "eager or all",
                                     error);
             },
             "locking|pessimistic|optimistic|eager|all")
      .Value("--preset=NAME",
             [&config](std::string_view v, std::string* error) {
               const double tps = config.tps;
               const uint64_t txns = config.total_txns;
               if (v == "oc3") {
                 config = core::SystemConfig::Oc3();
               } else if (v == "oc1") {
                 config = core::SystemConfig::Oc1();
               } else if (v == "oc1star") {
                 config = core::SystemConfig::Oc1Star();
               } else {
                 return core::BadValue("--preset", v,
                                       "want oc3, oc1 or oc1star", error);
               }
               config.tps = tps;
               config.total_txns = txns;
               return true;
             },
             "oc3|oc1|oc1star: a study's config, keeping tps, txns")
      .Number("--sites=N", &config.num_sites, 1, kMaxSite, "database sites")
      .Number("--items=N", &config.workload.items_per_site, 1, kMaxInt,
              "primary items per site")
      .Number("--tps=X", &config.tps, 0.0, kMaxDouble, "offered global load")
      .Number("--txns=N", &config.total_txns, 1, db::kMaxTxnId,
              "transactions to submit")
      .Number("--read-fraction=F", &config.workload.read_only_fraction, 0.0,
              1.0, "read-only share of transactions")
      .Number("--write-fraction=F", &config.workload.write_op_fraction, 0.0,
              1.0, "write share of an update's operations")
      .Value("--ops=MIN,MAX",
             [&config](std::string_view v, std::string* error) {
               std::vector<std::string_view> f = Split(v, ',');
               if (f.size() != 2) {
                 return core::BadValue("--ops", v, "want MIN,MAX", error);
               }
               return core::ParseNumber("--ops", f[0], 1, kMaxInt,
                                        &config.workload.min_ops, error) &&
                      core::ParseNumber("--ops", f[1], 1, kMaxInt,
                                        &config.workload.max_ops, error);
             },
             "operations per transaction")
      .Number("--latency=SEC", &config.network.latency, 0.0, kMaxDouble,
              "one-way network latency")
      .Number("--bandwidth=BPS", &config.network.bandwidth_bps, 0.0,
              kMaxDouble, "network bandwidth")
      .Value("--topology=SPEC",
             [&config](std::string_view v, std::string* error) {
               return config.topology.Parse(std::string(v), error);
             },
             "star, geo or geo:dc=,metros=,bb_bps=,bb_lat=,...")
      .Number("--timeout=SEC", &config.timeout, 0.0, kMaxDouble,
              "deadlock timeout and graph-site wait timeout")
      .Value("--seed=N",
             [&](std::string_view v, std::string* error) {
               seed_set = true;
               return core::ParseNumber("--seed", v, uint64_t{0}, kMaxU64,
                                        &config.seed, error);
             },
             "seed (with --replay: replaces the recorded one)")
      .Number("--replication-degree=K", &config.replication_degree, 0,
              kMaxInt, "replicas per item (0 = every site)")
      .Number("--gatekeeper=N", &config.read_gatekeeper, 0, kMaxInt,
              "read-only transactions per site (0 = no bound)")
      .Switch("--two-version", &config.two_version_reads,
              "reads take no read locks")
      .Switch("--relaxed-ownership", &config.workload.relaxed_ownership,
              "update any item at the origin site")
      .Switch("--sequential-dispatch",
              [&config] { config.pipelined_dispatch = false; },
              "one control round trip per operation")
      .Number("--loss=P", &config.fault.loss_prob, 0.0, 1.0,
              "per-leg message loss probability")
      .Number("--dup=P", &config.fault.dup_prob, 0.0, 1.0,
              "per-leg message duplication probability")
      .Number("--site-mtbf=SEC", &config.fault.site_mtbf, 0.0, kMaxDouble,
              "mean time between site crashes (0 = none)")
      .Number("--site-mttr=SEC", &config.fault.site_mttr, 0.0, kMaxDouble,
              "mean outage duration")
      .Switch("--crash-graph-site", &config.fault.crash_graph_site,
              "the graph site crashes too")
      .Value("--crash=ENDPOINT,AT,DUR",
             [&config](std::string_view v, std::string* error) {
               std::vector<std::string_view> f = Split(v, ',');
               if (f.size() != 3) {
                 return core::BadValue("--crash", v, "want ENDPOINT,AT,DUR",
                                       error);
               }
               fault::ScheduledCrash c;
               if (!core::ParseNumber("--crash", f[0], 0, kMaxSite,
                                      &c.endpoint, error) ||
                   !core::ParseNumber("--crash", f[1], 0.0, kMaxDouble, &c.at,
                                      error) ||
                   !core::ParseNumber("--crash", f[2], 0.0, kMaxDouble,
                                      &c.duration, error)) {
                 return false;
               }
               config.fault.crashes.push_back(c);
               return true;
             },
             "scripted outage; ENDPOINT <sites> = graph site")
      .Value("--partition=GROUP@AT:DUR",
             [&config](std::string_view v, std::string* error) {
               // GROUP is E1+E2+.. (endpoints forming one island) or
               // NAME|NAME|.. (topology groups, each its own island; checked
               // against the topology in Normalize()).
               const std::string_view kWant =
                   "want E1+E2+..@AT:DUR or NAME|NAME@AT:DUR";
               fault::ScheduledPartition part;
               const size_t at_pos = v.rfind('@');
               std::vector<std::string_view> window;
               if (at_pos != std::string_view::npos) {
                 window = Split(v.substr(at_pos + 1), ':');
               }
               if (window.size() != 2) {
                 return core::BadValue("--partition", v, kWant, error);
               }
               if (!core::ParseNumber("--partition", window[0], 0.0,
                                      kMaxDouble, &part.at, error) ||
                   !core::ParseNumber("--partition", window[1], 0.0,
                                      kMaxDouble, &part.duration, error)) {
                 return false;
               }
               std::string_view members = v.substr(0, at_pos);
               const bool legacy = members.find_first_not_of("0123456789+") ==
                                   std::string_view::npos;
               for (std::string_view m : Split(members, legacy ? '+' : '|')) {
                 int endpoint = 0;
                 if (m.empty()) {
                   return core::BadValue("--partition", v, kWant, error);
                 } else if (!legacy) {
                   part.groups.emplace_back(m);
                 } else if (core::ParseNumber("--partition", m, 0, kMaxSite,
                                              &endpoint, error)) {
                   part.group.push_back(endpoint);
                 } else {
                   return false;
                 }
               }
               config.fault.partitions.push_back(std::move(part));
               return true;
             },
             "GROUP: E1+E2+.. or NAME|NAME|.. (dc0|dc1.m0)")
      .Switch("--amnesia", &config.fault.amnesia,
              "crashes wipe volatile state; recovery replays the WAL")
      .Number("--checkpoint-interval=SEC", &config.fault.checkpoint_interval,
              0.0, kMaxDouble, "fuzzy checkpoint period (--amnesia)")
      .Number("--retries=N", &config.fault.max_retries, 0, kMaxInt,
              "retransmissions before pre-commit traffic gives up")
      .Number("--rto=SEC", &config.fault.rto_initial, 0.0, kMaxDouble,
              "initial retransmission timeout")
      .Text("--csv=FILE", &csv_path, "append a machine-readable row per run")
      .Text("--trace=FILE", &trace_path, "record event traces (lazyrep_trace)")
      .Text("--replay=FILE", &replay_path,
            "re-run the workload of a --trace capture")
      .Number("--replay-point=N", &replay_point, 0, kMaxInt,
              "point block of the --replay file (default 0)")
      .Number("--jobs=N", &jobs, 0, core::kMaxJobs,
              "threads for --protocol=all (0 = all; default 1)")
      .Switch("--check-serializability", &check_serializability,
              "run the MVSG checker; exit 2 on a violation")
      .Switch("--quiet", &quiet, "no human-readable block")
      .Parse(argc, argv);
  std::shared_ptr<const replay::WorkloadScript> script;
  if (!replay_path.empty()) {
    trace::TraceFile file;
    std::string error;
    if (!trace::ReadTraceFile(replay_path, &file, &error)) {
      std::fprintf(stderr, "cannot replay %s: %s\n", replay_path.c_str(),
                   error.c_str());
      return 1;
    }
    if (static_cast<size_t>(replay_point) >= file.points.size()) {
      std::fprintf(stderr, "--replay-point=%d out of range: %s holds %zu "
                   "point block(s)\n", replay_point, replay_path.c_str(),
                   file.points.size());
      return 1;
    }
    auto parsed = std::make_shared<replay::WorkloadScript>();
    if (!replay::WorkloadScript::FromPoint(file.points[replay_point],
                                           file.header.version, parsed.get(),
                                           &error)) {
      std::fprintf(stderr, "cannot replay %s point %d: %s\n",
                   replay_path.c_str(), replay_point, error.c_str());
      return 1;
    }
    script = parsed;
    if (!protocol_set) {
      if (script->protocol() >= 4) {
        std::fprintf(stderr, "recorded protocol id %u is unknown; pick one "
                     "with --protocol\n", script->protocol());
        return 1;
      }
      protocols = {static_cast<core::ProtocolKind>(script->protocol())};
    }
    config = replay::MakeReplayConfig(*script, config, /*keep_seed=*/seed_set);
  }
  // Validate fault specs against the topology System will build (sites plus
  // the auxiliary graph endpoint) for a friendly error instead of the
  // hard-check inside Normalize().
  {
    net::Topology topo = config.BuildTopology();
    topo.AddAuxEndpoint(net::AccessEdge(config.network));
    if (std::string err; !config.fault.Validate(topo, &err)) {
      std::fprintf(stderr, "invalid fault parameters: %s\n", err.c_str());
      return 1;
    }
  }
  // Validate before the replay check: FitsDatabase, like every run, sizes
  // the database by total_items(), which Validate bounds.
  for (core::ProtocolKind kind : protocols) {
    if (std::string err; !config.Validate(kind, &err)) {
      std::fprintf(stderr, "invalid configuration: %s\n", err.c_str());
      return 1;
    }
  }
  if (std::string err;
      script != nullptr && !script->FitsDatabase(config, &err)) {
    std::fprintf(stderr, "cannot replay %s point %d: %s\n",
                 replay_path.c_str(), replay_point, err.c_str());
    return 1;
  }
  config.Normalize();

  std::vector<core::RunSpec> specs;
  specs.reserve(protocols.size());
  for (core::ProtocolKind kind : protocols) {
    if (script != nullptr) {
      specs.push_back(replay::MakeReplaySpec(script, config, kind,
                                             script->x(), seed_set));
    } else {
      specs.push_back({config, kind});
    }
  }
  std::vector<core::MetricsSnapshot> snaps;
  try {
    snaps = core::RunAll(specs, jobs, check_serializability, {},
                         /*post_run_audit=*/false, trace_path);
  } catch (const std::bad_alloc&) {
    // The System's one version table keeps an entry for every item of the
    // database, whatever the site count.
    const unsigned long long bytes =
        db::ReplicaVersions::kBytesPerItem *
        static_cast<unsigned long long>(config.total_items());
    std::fprintf(stderr, "database too big for memory: %d items need %llu "
                 "bytes of replica versions (%zu bytes per item)\n",
                 config.total_items(), bytes,
                 db::ReplicaVersions::kBytesPerItem);
    return 1;
  }

  int exit_code = 0;
  for (size_t i = 0; i < specs.size(); ++i) {
    core::ProtocolKind kind = specs[i].protocol;
    const core::MetricsSnapshot& m = snaps[i];
    int serializable = m.serializable;  // -1 = not checked
    const std::string& why = m.serializability_why;
    if (!quiet) {
      std::printf("=== %s | %d sites | %d items | %.0f TPS offered ===\n",
                  core::ProtocolKindName(kind), config.num_sites,
                  config.total_items(), config.tps);
      std::printf("%s\n", m.ToString().c_str());
      std::printf("ro p50/p95/p99: %.4f/%.4f/%.4f s   "
                  "upd p50/p95/p99: %.4f/%.4f/%.4f s\n",
                  m.read_only_quantiles.P50(), m.read_only_quantiles.P95(),
                  m.read_only_quantiles.P99(), m.update_quantiles.P50(),
                  m.update_quantiles.P95(), m.update_quantiles.P99());
      // The serializability verdict, when checked, is part of ToString().
      if (serializable == 0) {
        std::printf("SERIALIZABILITY VIOLATION: %s\n", why.c_str());
      }
      std::printf("\n");
    }
    if (!csv_path.empty()) {
      AppendCsv(csv_path, core::ProtocolKindName(kind), config, m,
                serializable);
    }
    if (serializable == 0) exit_code = 2;
  }
  return exit_code;
}
