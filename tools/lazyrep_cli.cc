// lazyrep_cli — run one replication experiment from the command line.
//
// A downstream-user front-end over the library: every Table-1 parameter and
// extension flag is reachable without writing C++. Prints the human-readable
// metrics block and, with --csv, appends one machine-readable row (with a
// header when the file is new) for scripting and plotting.
//
// Examples:
//   lazyrep_cli --protocol=optimistic --preset=oc3 --tps=1800 --txns=20000
//   lazyrep_cli --protocol=all --sites=12 --items=20 --tps=400 --csv=sweep.csv
//   lazyrep_cli --help

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <sys/stat.h>
#include <vector>

#include "core/config.h"
#include "core/parse_number.h"
#include "core/study.h"
#include "core/system.h"
#include "replay/workload_script.h"
#include "trace/trace_reader.h"

using namespace lazyrep;

namespace {

void PrintHelp() {
  std::printf(
      "lazyrep_cli — run one lazy-replication experiment\n\n"
      "protocol / scenario\n"
      "  --protocol=locking|pessimistic|optimistic|eager|all\n"
      "                                  (default optimistic)\n"
      "  --preset=oc3|oc1|oc1star        start from a paper study config\n"
      "workload & system (override preset)\n"
      "  --sites=N --items=N             sites, primary items per site\n"
      "  --tps=X                         offered global load\n"
      "  --txns=N                        transactions to submit\n"
      "  --read-fraction=F --write-fraction=F --ops=MIN,MAX\n"
      "  --latency=SEC --bandwidth=BPS   network\n"
      "  --topology=star|geo[:KEY=VAL,..] network shape: flat star (default)\n"
      "                                  or a geo hierarchy (keys: dc, metros,\n"
      "                                  bb_bps, bb_lat, up_bps, up_lat)\n"
      "  --timeout=SEC --seed=N\n"
      "extensions\n"
      "  --replication-degree=K --gatekeeper=N --two-version\n"
      "  --relaxed-ownership --sequential-dispatch\n"
      "fault injection\n"
      "  --loss=P --dup=P                per-leg message loss/dup probability\n"
      "  --site-mtbf=SEC --site-mttr=SEC exponential crash/recovery rotation\n"
      "  --crash-graph-site              include the graph site in the rotation\n"
      "  --crash=ENDPOINT,AT,DUR         scripted outage (repeatable;\n"
      "                                  endpoint <sites> = graph site)\n"
      "  --partition=E1+E2+..@AT:DUR     scripted group partition: the listed\n"
      "                                  endpoints are cut off from the rest\n"
      "                                  during [AT, AT+DUR) (repeatable)\n"
      "  --partition=dc0|dc1.m0@AT:DUR   same, but by named topology group:\n"
      "                                  each name becomes its own island,\n"
      "                                  remaining endpoints form the last\n"
      "                                  (requires --topology=geo...)\n"
      "  --amnesia                       crashes wipe volatile state; sites\n"
      "                                  replay their WAL on recovery\n"
      "  --checkpoint-interval=SEC       fuzzy checkpoint period (amnesia)\n"
      "  --retries=N --rto=SEC           reliable-messaging retry policy\n"
      "replay (what-if re-execution of a captured workload)\n"
      "  --replay=FILE                   re-run the exact workload recorded in\n"
      "                                  a --trace capture: same submission\n"
      "                                  instants, op lists, and per-site\n"
      "                                  order. sites/txns/seed come from the\n"
      "                                  recording; --protocol, --topology,\n"
      "                                  faults etc. still apply (defaults:\n"
      "                                  the recorded protocol; --seed keeps\n"
      "                                  an explicit seed override)\n"
      "  --replay-point=N                which point block of FILE (default 0)\n"
      "output\n"
      "  --csv=FILE                      append a machine-readable row\n"
      "  --trace=FILE                    record per-transaction event traces\n"
      "                                  (analyze with lazyrep_trace)\n"
      "  --check-serializability         run the MVSG checker (slower)\n"
      "  --jobs=N                        run --protocol=all runs on N worker\n"
      "                                  threads (0 = all cores; default 1)\n"
      "  --quiet                         suppress the human-readable block\n");
}

bool FlagValue(const char* arg, const char* name, const char** value) {
  size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) == 0 && arg[n] == '=') {
    *value = arg + n + 1;
    return true;
  }
  return false;
}

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
  // Strict value of a numeric flag: a bad one names the flag and the text
  // and exits 1, as the CLI's other input errors do.
  auto Number = [&](const char* flag, std::string_view text, auto lo,
                    auto hi) {
    return core::ParseNumberOrExit(argv[0], flag, text, lo, hi, 1);
  };

  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    const char* v = nullptr;
    if (std::strcmp(a, "--help") == 0 || std::strcmp(a, "-h") == 0) {
      PrintHelp();
      return 0;
    } else if (FlagValue(a, "--protocol", &v)) {
      protocol_set = true;
      protocols.clear();
      if (std::strcmp(v, "locking") == 0) {
        protocols.push_back(core::ProtocolKind::kLocking);
      } else if (std::strcmp(v, "pessimistic") == 0) {
        protocols.push_back(core::ProtocolKind::kPessimistic);
      } else if (std::strcmp(v, "optimistic") == 0) {
        protocols.push_back(core::ProtocolKind::kOptimistic);
      } else if (std::strcmp(v, "eager") == 0) {
        protocols.push_back(core::ProtocolKind::kEager);
      } else if (std::strcmp(v, "all") == 0) {
        protocols = {core::ProtocolKind::kLocking,
                     core::ProtocolKind::kPessimistic,
                     core::ProtocolKind::kOptimistic,
                     core::ProtocolKind::kEager};
      } else {
        std::fprintf(stderr, "unknown protocol %s\n", v);
        return 1;
      }
    } else if (FlagValue(a, "--preset", &v)) {
      double tps = config.tps;
      uint64_t txns = config.total_txns;
      if (std::strcmp(v, "oc3") == 0) {
        config = core::SystemConfig::Oc3();
      } else if (std::strcmp(v, "oc1") == 0) {
        config = core::SystemConfig::Oc1();
      } else if (std::strcmp(v, "oc1star") == 0) {
        config = core::SystemConfig::Oc1Star();
      } else {
        std::fprintf(stderr, "unknown preset %s\n", v);
        return 1;
      }
      config.tps = tps;
      config.total_txns = txns;
    } else if (FlagValue(a, "--sites", &v)) {
      config.num_sites = Number("--sites", v, 1, kMaxSite);
    } else if (FlagValue(a, "--items", &v)) {
      config.workload.items_per_site = Number("--items", v, 1, kMaxInt);
    } else if (FlagValue(a, "--tps", &v)) {
      config.tps = Number("--tps", v, 0.0, kMaxDouble);
    } else if (FlagValue(a, "--txns", &v)) {
      config.total_txns = Number("--txns", v, uint64_t{1}, kMaxU64);
    } else if (FlagValue(a, "--read-fraction", &v)) {
      config.workload.read_only_fraction =
          Number("--read-fraction", v, 0.0, 1.0);
    } else if (FlagValue(a, "--write-fraction", &v)) {
      config.workload.write_op_fraction =
          Number("--write-fraction", v, 0.0, 1.0);
    } else if (FlagValue(a, "--ops", &v)) {
      std::vector<std::string_view> f = Split(v, ',');
      if (f.size() != 2) {
        std::fprintf(stderr, "--ops wants MIN,MAX\n");
        return 1;
      }
      config.workload.min_ops = Number("--ops", f[0], 1, kMaxInt);
      config.workload.max_ops = Number("--ops", f[1], 1, kMaxInt);
    } else if (FlagValue(a, "--latency", &v)) {
      config.network.latency = Number("--latency", v, 0.0, kMaxDouble);
    } else if (FlagValue(a, "--bandwidth", &v)) {
      config.network.bandwidth_bps =
          Number("--bandwidth", v, 0.0, kMaxDouble);
    } else if (FlagValue(a, "--topology", &v)) {
      std::string err;
      if (!config.topology.Parse(v, &err)) {
        std::fprintf(stderr, "bad --topology: %s\n", err.c_str());
        return 1;
      }
    } else if (FlagValue(a, "--timeout", &v)) {
      config.timeout = Number("--timeout", v, 0.0, kMaxDouble);
      config.graph.wait_timeout = config.timeout;
    } else if (FlagValue(a, "--seed", &v)) {
      config.seed = Number("--seed", v, uint64_t{0}, kMaxU64);
      seed_set = true;
    } else if (FlagValue(a, "--replication-degree", &v)) {
      config.replication_degree =
          Number("--replication-degree", v, 0, kMaxInt);
    } else if (FlagValue(a, "--gatekeeper", &v)) {
      config.read_gatekeeper = Number("--gatekeeper", v, 0, kMaxInt);
    } else if (std::strcmp(a, "--two-version") == 0) {
      config.two_version_reads = true;
    } else if (std::strcmp(a, "--relaxed-ownership") == 0) {
      config.workload.relaxed_ownership = true;
    } else if (std::strcmp(a, "--sequential-dispatch") == 0) {
      config.pipelined_dispatch = false;
    } else if (FlagValue(a, "--loss", &v)) {
      config.fault.loss_prob = Number("--loss", v, 0.0, 1.0);
    } else if (FlagValue(a, "--dup", &v)) {
      config.fault.dup_prob = Number("--dup", v, 0.0, 1.0);
    } else if (FlagValue(a, "--site-mtbf", &v)) {
      config.fault.site_mtbf = Number("--site-mtbf", v, 0.0, kMaxDouble);
    } else if (FlagValue(a, "--site-mttr", &v)) {
      config.fault.site_mttr = Number("--site-mttr", v, 0.0, kMaxDouble);
    } else if (std::strcmp(a, "--crash-graph-site") == 0) {
      config.fault.crash_graph_site = true;
    } else if (FlagValue(a, "--crash", &v)) {
      fault::ScheduledCrash c;
      std::vector<std::string_view> f = Split(v, ',');
      if (f.size() != 3) {
        std::fprintf(stderr, "--crash wants ENDPOINT,AT,DURATION\n");
        return 1;
      }
      c.endpoint = Number("--crash", f[0], 0, kMaxSite);
      c.at = Number("--crash", f[1], 0.0, kMaxDouble);
      c.duration = Number("--crash", f[2], 0.0, kMaxDouble);
      config.fault.crashes.push_back(c);
    } else if (FlagValue(a, "--partition", &v)) {
      // Two spellings, both ending in @AT:DUR. Legacy: endpoints separated
      // by '+'. Named: topology group names separated by '|', each becoming
      // its own island (validated against the topology in Normalize()).
      fault::ScheduledPartition part;
      std::string_view spec(v);
      size_t at_pos = spec.rfind('@');
      std::vector<std::string_view> window;
      if (at_pos != std::string_view::npos) {
        window = Split(spec.substr(at_pos + 1), ':');
      }
      bool ok = window.size() == 2;
      if (ok) {
        part.at = Number("--partition", window[0], 0.0, kMaxDouble);
        part.duration = Number("--partition", window[1], 0.0, kMaxDouble);
        std::string_view members = spec.substr(0, at_pos);
        const bool legacy =
            members.find_first_not_of("0123456789+") == std::string_view::npos;
        for (std::string_view m : Split(members, legacy ? '+' : '|')) {
          ok = ok && !m.empty();
          if (!ok) break;
          if (legacy) {
            part.group.push_back(Number("--partition", m, 0, kMaxSite));
          } else {
            part.groups.emplace_back(m);
          }
        }
      }
      if (!ok || (part.group.empty() && part.groups.empty())) {
        std::fprintf(stderr,
                     "--partition wants E1+E2+..@AT:DUR or NAME|NAME@AT:DUR\n");
        return 1;
      }
      config.fault.partitions.push_back(std::move(part));
    } else if (std::strcmp(a, "--amnesia") == 0) {
      config.fault.amnesia = true;
    } else if (FlagValue(a, "--checkpoint-interval", &v)) {
      config.fault.checkpoint_interval =
          Number("--checkpoint-interval", v, 0.0, kMaxDouble);
    } else if (FlagValue(a, "--retries", &v)) {
      config.fault.max_retries = Number("--retries", v, 0, kMaxInt);
    } else if (FlagValue(a, "--rto", &v)) {
      config.fault.rto_initial = Number("--rto", v, 0.0, kMaxDouble);
    } else if (FlagValue(a, "--csv", &v)) {
      csv_path = v;
    } else if (FlagValue(a, "--trace", &v)) {
      trace_path = v;
    } else if (FlagValue(a, "--replay", &v)) {
      replay_path = v;
    } else if (FlagValue(a, "--replay-point", &v)) {
      replay_point = Number("--replay-point", v, 0, kMaxInt);
    } else if (FlagValue(a, "--jobs", &v)) {
      jobs = Number("--jobs", v, 0, core::kMaxJobs);
    } else if (std::strcmp(a, "--check-serializability") == 0) {
      check_serializability = true;
    } else if (std::strcmp(a, "--quiet") == 0) {
      quiet = true;
    } else {
      std::fprintf(stderr, "unknown flag %s (try --help)\n", a);
      return 1;
    }
  }
  std::shared_ptr<const replay::WorkloadScript> script;
  if (!replay_path.empty()) {
    trace::TraceFile file;
    std::string error;
    if (!trace::ReadTraceFile(replay_path, &file, &error)) {
      std::fprintf(stderr, "cannot replay %s: %s\n", replay_path.c_str(),
                   error.c_str());
      return 1;
    }
    if (replay_point < 0 ||
        static_cast<size_t>(replay_point) >= file.points.size()) {
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
  for (core::ProtocolKind kind : protocols) {
    if (std::string err; !config.Validate(kind, &err)) {
      std::fprintf(stderr, "invalid configuration: %s\n", err.c_str());
      return 1;
    }
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
  std::vector<core::MetricsSnapshot> snaps =
      core::RunAll(specs, jobs, check_serializability, {},
                   /*post_run_audit=*/false, trace_path);

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
