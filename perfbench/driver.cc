// lazyrep_bench: runs the points of one benchmark workload through the
// library API, one System at a time on the calling thread, and prints one
// JSON line per point. perfbench/run.py drives it; see README.md.
//
//   lazyrep_bench --workload=NAME [--seed=N] [--first=I] [--count=K]
//
// Before a point runs, a {"start":I,...} line names it, so a point that dies
// on a LAZYREP_CHECK abort can be told apart from the ones that finished.
// Each finished point reports its host times (construction, System::Run,
// audits, whole point), its simulated counters, and a digest of its
// simulated results. The traced build (layer_trace.cc) adds a "layers"
// object of per-layer call counts and self times.
//
// Each start line also carries "probe_s", the host time of a fixed job that
// does not touch lazyrep (ProbeHost), and a last {"probe_s":...} line follows
// the last point, so every point is bracketed by two probes. run.py divides
// a point's host times by the probes around it to take out the shared host's
// speed swings.
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "core/config.h"
#include "core/history.h"
#include "core/metrics.h"
#include "core/study.h"
#include "core/system.h"
#include "layer.h"
#include "sim/frame_pool.h"

namespace perfbench {
namespace {

using lazyrep::core::ProtocolKind;
using lazyrep::core::SystemConfig;

// Workload sizes. A run repeats the whole workload as often as its time
// budget allows, so these set the cost of one repetition.
constexpr uint64_t kOc3Txns = 3000;
constexpr uint64_t kFleetTxns = 10000;
constexpr uint64_t kGeoTxns = 10000;
constexpr uint64_t kChaosTxns = 1500;
constexpr int kChaosSchedules = 25;

struct Point {
  std::string label;
  SystemConfig config;
  ProtocolKind protocol = ProtocolKind::kLocking;
  /// Serializability, convergence and liveness audits after the run.
  bool audit = false;
};

std::string Label(ProtocolKind kind, const char* what, double x) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%s %s=%g",
                lazyrep::core::ProtocolKindName(kind), what, x);
  return buf;
}

/// OC-3 at `sites` sites, seeded like bench_study_oc3's point of the same
/// protocol and TPS.
Point Oc3Point(ProtocolKind kind, int sites, double tps, uint64_t txns,
               uint64_t seed) {
  Point p;
  p.protocol = kind;
  p.config = SystemConfig::Oc3();
  p.config.num_sites = sites;
  p.config.tps = tps;
  p.config.total_txns = txns;
  p.config.seed = lazyrep::core::DerivePointSeed("OC-3", kind, tps, seed);
  p.config.Normalize();
  p.label = Label(kind, "tps", tps);
  return p;
}

std::vector<Point> Oc3Sweep(uint64_t seed) {
  std::vector<Point> points;
  for (ProtocolKind kind : {ProtocolKind::kLocking, ProtocolKind::kPessimistic,
                            ProtocolKind::kOptimistic}) {
    for (double tps : {200.0, 1400.0, 2600.0}) {
      points.push_back(Oc3Point(kind, 100, tps, kOc3Txns, seed));
    }
  }
  return points;
}

std::vector<Point> Fleet1024(uint64_t seed) {
  return {Oc3Point(ProtocolKind::kPessimistic, 1024, 2600, kFleetTxns, seed),
          Oc3Point(ProtocolKind::kOptimistic, 1024, 2600, kFleetTxns, seed)};
}

/// bench_study_geo's layout: 24 sites over 3 datacenters x 2 metro stars,
/// 300 TPS offered, eager 2PC at two backbone latencies long enough for
/// replica-lock rounds to time out and retry.
std::vector<Point> GeoEager(uint64_t seed) {
  std::vector<Point> points;
  for (double bb_lat : {0.05, 0.1}) {
    Point p;
    p.protocol = ProtocolKind::kEager;
    SystemConfig& c = p.config;
    c.num_sites = 24;
    c.workload.items_per_site = 20;
    c.tps = 300;
    c.topology.kind = lazyrep::net::TopologySpec::Kind::kGeo;
    c.topology.datacenters = 3;
    c.topology.metros_per_dc = 2;
    c.topology.backbone_latency = bb_lat;
    c.total_txns = kGeoTxns;
    c.seed = lazyrep::core::DerivePointSeed("geo-backbone", p.protocol, bb_lat,
                                            seed);
    c.Normalize();
    p.label = Label(p.protocol, "bb_lat", bb_lat);
    points.push_back(std::move(p));
  }
  return points;
}

/// MakeChaosConfig base seeds 1-48 on which all 100 chaos points finish and
/// pass their audits. Base seeds 12, 24, 31, 35 and 46 are left out: each
/// has a point that fails (README.md lists them with reproducers).
constexpr uint64_t kChaosBaseSeeds[] = {
    1,  2,  3,  4,  5,  6,  7,  8,  9,  10, 11, 13, 14, 15, 16,
    17, 18, 19, 20, 21, 22, 23, 25, 26, 27, 28, 29, 30, 32, 33,
    34, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 47, 48};

/// `seed` picks a base seed from kChaosBaseSeeds, cyclically, so that seed 1
/// is base seed 1.
std::vector<Point> ChaosAudit(uint64_t seed) {
  constexpr uint64_t kBases = std::size(kChaosBaseSeeds);
  lazyrep::core::ChaosOptions opt;
  opt.txns = kChaosTxns;
  opt.seed = kChaosBaseSeeds[(seed % kBases + kBases - 1) % kBases];
  std::vector<Point> points;
  for (ProtocolKind kind : {ProtocolKind::kLocking, ProtocolKind::kPessimistic,
                            ProtocolKind::kOptimistic, ProtocolKind::kEager}) {
    for (int s = 0; s < kChaosSchedules; ++s) {
      Point p;
      p.protocol = kind;
      p.config = lazyrep::core::MakeChaosConfig(opt, kind, s);
      p.audit = true;
      p.label = Label(kind, "schedule", s);
      points.push_back(std::move(p));
    }
  }
  return points;
}

struct Workload {
  const char* name;
  std::vector<Point> (*build)(uint64_t seed);
};

constexpr Workload kWorkloads[] = {
    {"oc3_sweep", Oc3Sweep},
    {"fleet_1024", Fleet1024},
    {"geo_eager", GeoEager},
    {"chaos_audit", ChaosAudit},
};

// -- digest of a point's simulated results ------------------------------------

class Digest {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ = (h_ ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ULL;
    }
  }
  void Add(double v) {
    uint64_t bits = 0;
    static_assert(sizeof bits == sizeof v);
    std::memcpy(&bits, &v, sizeof bits);
    Add(bits);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;  // FNV-1a 64 offset basis
};

/// The figure fields of the snapshot (Figures 2-7: completed TPS, graph CPU,
/// abort rate, the three response times) with the counts behind them, plus
/// the events the run fired.
uint64_t PointDigest(const lazyrep::core::MetricsSnapshot& m,
                     uint64_t events) {
  Digest d;
  d.Add(m.submitted);
  d.Add(m.committed);
  d.Add(m.completed);
  d.Add(m.aborted);
  d.Add(m.completed_tps);
  d.Add(m.abort_rate);
  d.Add(m.graph_cpu_utilization);
  d.Add(m.read_only_response.Mean());
  d.Add(m.update_response.Mean());
  d.Add(m.commit_to_complete.Mean());
  d.Add(events);
  return d.value();
}

// -- host speed probe -----------------------------------------------------------

/// Keeps the probe's work from being optimised away.
volatile uint64_t g_probe_sink = 0;

/// Times a fixed job that does not touch lazyrep: 60,000 pops and pushes on
/// an 8,192-entry binary heap, each paired with a random read-modify-write
/// in a 4 MB table (twice a core's L2, so it reaches the shared cache the
/// way the simulator's working set does). Its host time moves with the
/// host's speed and with nothing in lazyrep. The table lives as long as the
/// process, so it adds the same 4 MB to the peak resident memory of every
/// workload.
double ProbeHost() {
  using Clock = std::chrono::steady_clock;
  using Entry = std::pair<double, uint32_t>;
  constexpr size_t kTableWords = size_t{1} << 20;
  constexpr uint32_t kHeapSize = 1u << 13;
  constexpr uint32_t kSteps = 60000;
  static std::vector<uint32_t> table(kTableWords, 1u);
  std::vector<Entry> heap;
  heap.reserve(kHeapSize);
  const auto later = std::greater<Entry>();
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  const auto next = [&x] {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return x;
  };

  const Clock::time_point t0 = Clock::now();
  for (uint32_t i = 0; i < kHeapSize; ++i) {
    heap.emplace_back(static_cast<double>(next() >> 40), i);
    std::push_heap(heap.begin(), heap.end(), later);
  }
  uint64_t sum = 0;
  for (uint32_t i = 0; i < kSteps; ++i) {
    const uint64_t r = next();
    std::pop_heap(heap.begin(), heap.end(), later);
    Entry& e = heap.back();
    e.first += static_cast<double>(r >> 52);
    std::push_heap(heap.begin(), heap.end(), later);
    uint32_t& slot = table[(r >> 20) & (kTableWords - 1)];
    slot += e.second;
    sum += slot;
  }
  const Clock::time_point t1 = Clock::now();

  g_probe_sink = sum;
  return std::chrono::duration<double>(t1 - t0).count();
}

// -- output -------------------------------------------------------------------

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

double Seconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

void PrintSpan(const char* name, const SpanStat& s) {
  std::printf(",\"%s_calls\":%" PRIu64 ",\"%s_s\":%.9f", name, s.calls, name,
              static_cast<double>(s.self_ns) * 1e-9);
}

void PrintLayers(const LayerStats& l) {
  std::printf(",\"layers\":{\"cancels\":%" PRIu64 ",\"peak_pending\":%" PRIu64
              ",\"facility_uses\":%" PRIu64 ",\"transfers\":%" PRIu64
              ",\"multicasts\":%" PRIu64 ",\"lock_acquires\":%" PRIu64
              ",\"rg_ok\":%" PRIu64 ",\"check_edges\":%" PRIu64,
              l.cancels, l.peak_pending, l.facility_uses, l.transfers,
              l.multicasts, l.lock_acquires, l.rg_ok, l.check_edges);
  PrintSpan("queue", l.queue);
  PrintSpan("stat_set", l.stat_set);
  PrintSpan("lock_release", l.lock_release);
  PrintSpan("store_apply", l.store_apply);
  PrintSpan("store_read", l.store_read);
  PrintSpan("rg_test", l.rg_test);
  PrintSpan("rg_remove", l.rg_remove);
  PrintSpan("delivery", l.delivery);
  std::printf("}");
}

/// Runs one point and prints its result line.
void RunPoint(size_t index, const Point& p) {
  using Clock = std::chrono::steady_clock;
  const double probe_s = ProbeHost();
  std::printf("{\"start\":%zu,\"label\":%s,\"probe_s\":%.9f}\n", index,
              JsonString(p.label).c_str(), probe_s);
  std::fflush(stdout);

  ResetLayers();
  lazyrep::core::HistoryRecorder history;
  lazyrep::core::MetricsSnapshot m;
  uint64_t events = 0;
  uint64_t allocs = 0;
  lazyrep::sim::FramePoolStats pool0;
  lazyrep::sim::FramePoolStats pool1;
  Clock::time_point t_setup;
  Clock::time_point t_run;
  Clock::time_point t_audit;
  bool ok = true;
  std::string why;
  const Clock::time_point t0 = Clock::now();
  {
    lazyrep::core::System system(p.config, p.protocol);
    t_setup = Clock::now();
    if (p.audit) system.set_history(&history);
    pool0 = lazyrep::sim::FramePoolThreadStats();
    const uint64_t allocs0 = HeapAllocs();
    m = system.Run();
    allocs = HeapAllocs() - allocs0;
    pool1 = lazyrep::sim::FramePoolThreadStats();
    events = system.sim().events_fired();
    t_run = Clock::now();
    if (p.audit) {
      std::string s_why;
      std::string c_why;
      const bool serializable = history.CheckOneCopySerializable(&s_why);
      const bool converged = system.ReplicasConverged(&c_why);
      const uint64_t stranded = system.LiveTxns();
      if (!serializable) why = "not serializable: " + s_why;
      if (!converged) why = "replicas diverged: " + c_why;
      if (stranded != 0) {
        why = std::to_string(stranded) + " stranded transactions";
      }
      ok = serializable && converged && stranded == 0;
    }
    t_audit = Clock::now();
  }
  const Clock::time_point t_end = Clock::now();

  std::printf(
      "{\"point\":%zu,\"label\":%s,\"ok\":%s,\"why\":%s,"
      "\"digest\":\"%016" PRIx64 "\",\"txns\":%" PRIu64
      ",\"setup_s\":%.9f,\"run_s\":%.9f,\"audit_s\":%.9f,\"wall_s\":%.9f"
      ",\"events\":%" PRIu64 ",\"submitted\":%" PRIu64
      ",\"committed\":%" PRIu64 ",\"aborted\":%" PRIu64
      ",\"lock_waits\":%" PRIu64
      ",\"lock_timeouts\":%" PRIu64 ",\"twr_ignored\":%" PRIu64
      ",\"site_cpu_util\":%.6f,\"disk_util\":%.6f,\"graph_cpu_util\":%.6f"
      ",\"graph_cpu_queue\":%.6f,\"net_util_max\":%.6f"
      ",\"eager_rounds\":%" PRIu64 ",\"eager_retries\":%" PRIu64
      ",\"retransmissions\":%" PRIu64 ",\"wal_forces\":%" PRIu64
      ",\"recoveries\":%" PRIu64 ",\"frames_fresh\":%" PRIu64
      ",\"frames_pooled\":%" PRIu64 ",\"allocs\":%" PRIu64,
      index, JsonString(p.label).c_str(), ok ? "true" : "false",
      JsonString(why).c_str(),
      PointDigest(m, events), p.config.total_txns, Seconds(t_setup - t0),
      Seconds(t_run - t_setup), Seconds(t_audit - t_run), Seconds(t_end - t0),
      events, m.submitted, m.committed, m.aborted, m.lock_waits,
      m.lock_timeouts, m.writes_ignored_twr, m.mean_site_cpu_utilization,
      m.mean_disk_utilization, m.graph_cpu_utilization, m.graph_cpu_queue,
      m.max_network_utilization, m.eager_lock_rounds,
      m.eager_lock_round_retries, m.retransmissions, m.wal_forces,
      m.site_recoveries, pool1.fresh_allocs - pool0.fresh_allocs,
      pool1.pooled_allocs - pool0.pooled_allocs, allocs);
  if (Traced()) PrintLayers(Layers());
  std::printf("}\n");
  std::fflush(stdout);
}

// -- arguments ------------------------------------------------------------------

[[noreturn]] void Fail(const std::string& msg) {
  std::fprintf(stderr,
               "lazyrep_bench: %s\nusage: lazyrep_bench --workload=NAME "
               "[--seed=N] [--first=I] [--count=K]\n",
               msg.c_str());
  std::exit(2);
}

uint64_t ParseCount(const char* flag, const char* text, uint64_t max) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (text[0] < '0' || text[0] > '9' || *end != '\0' || errno != 0 ||
      v > max) {
    Fail(std::string("malformed number for ") + flag + ": '" + text + "'");
  }
  return v;
}

int Main(int argc, char** argv) {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  uint64_t first = 0;
  uint64_t count = UINT64_MAX;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    const char* eq = std::strchr(a, '=');
    const std::string flag = eq ? std::string(a, eq - a) : std::string(a);
    const char* value = eq ? eq + 1 : nullptr;
    if (value == nullptr) {
      Fail("unknown flag or missing '=value': " + flag);
    } else if (flag == "--workload") {
      workload = nullptr;
      for (const Workload& w : kWorkloads) {
        if (std::strcmp(w.name, value) == 0) workload = &w;
      }
      if (workload == nullptr) {
        Fail(std::string("unknown workload: '") + value + "'");
      }
    } else if (flag == "--seed") {
      seed = ParseCount("--seed", value, UINT64_MAX);
    } else if (flag == "--first") {
      first = ParseCount("--first", value, 1u << 20);
    } else if (flag == "--count") {
      count = ParseCount("--count", value, 1u << 20);
    } else {
      Fail("unknown flag: " + flag);
    }
  }
  if (workload == nullptr) Fail("--workload is required");

  const std::vector<Point> points = workload->build(seed);
  if (first > points.size()) {
    Fail("--first is past the last point (" + std::to_string(points.size()) +
         " points)");
  }
  const size_t end = count >= points.size() - first
                         ? points.size()
                         : static_cast<size_t>(first + count);
  for (size_t i = first; i < end; ++i) RunPoint(i, points[i]);
  std::printf("{\"probe_s\":%.9f}\n", ProbeHost());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
