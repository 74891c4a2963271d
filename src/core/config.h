#ifndef LAZYREP_CORE_CONFIG_H_
#define LAZYREP_CORE_CONFIG_H_

#include <algorithm>
#include <cstdint>
#include <string>

#include "fault/fault_params.h"
#include "net/network.h"
#include "txn/workload.h"

namespace lazyrep::core {

/// Which replication protocol a System instance runs.
enum class ProtocolKind : uint8_t {
  kLocking,      ///< global locking [Gray et al. 96 / §2.2]
  kPessimistic,  ///< replication graph, per-operation RGtest [§2.4]
  kOptimistic,   ///< replication graph, commit-time RGtest [§2.5]
  kEager,        ///< eager baseline: strict 2PL at all replicas + 2PC [§1]
};

const char* ProtocolKindName(ProtocolKind kind);

// -- Table 1 constants every study runs on (the disks are hw::DiskParams{},
// the replication-graph costs rg::kAddInstr and rg::kCheckInstrPerEdge) ------

/// Site CPU speed, also the graph site's CPU.
inline constexpr double kCpuMips = 300.0;
/// Data item size: page reads and writes, propagation and PREPARE payloads,
/// WAL redo records.
inline constexpr size_t kItemBytes = 1024;

// -- implementation costs the paper leaves unspecified (DESIGN.md §2) -------

/// CPU instructions to process one database operation at a site.
inline constexpr double kOpInstr = 50000;
/// CPU instructions to send or receive one message at a database site.
inline constexpr double kMessageInstr = 5000;
/// Control-message size (lock requests/grants, RGtest requests, acks) —
/// ATM-cell-scale payloads; large enough values would make the graph site's
/// *link*, not its CPU, the first bottleneck, contradicting §4.1.
inline constexpr size_t kCtrlMsgBytes = 128;
/// Header bytes on an update-propagation message (plus kItemBytes per item).
inline constexpr size_t kPropagationOverheadBytes = 64;
/// Log-force payload at commit.
inline constexpr size_t kLogBytes = 512;
/// Eager distributed-deadlock resolution: after a replica-lock round times
/// out, the denied sites are retried up to this many more times.
inline constexpr int kEagerLockRetries = 2;
/// Base of eager's randomized exponential backoff between lock-round
/// retries: the k-th retry sleeps Uniform(0, base * 2^k) seconds.
inline constexpr double kEagerBackoffBase = 0.05;

/// Full simulation configuration: the Table 1 values the studies vary (the
/// rest are the constants above), the study's extensions and the run
/// control.
struct SystemConfig {
  // -- general ---------------------------------------------------------------
  int num_sites = 100;
  /// Deadlock-timeout interval (lock waits and graph-site waits), seconds.
  double timeout = 0.5;

  // -- transactions ----------------------------------------------------------
  txn::WorkloadParams workload;
  /// Global submitted transaction rate (TPS); each site generates TPS/#sites.
  double tps = 1000.0;

  // -- network / graph site ---------------------------------------------------
  net::NetworkParams network;
  /// Shape of the network: the paper's flat star (default) or a composed
  /// geo-hierarchical tree (backbone -> datacenters -> metro stars). Site
  /// access links and metro switches always take their parameters from
  /// `network`; the spec adds the backbone/uplink edges on top.
  net::TopologySpec topology;
  /// Bound on the graph site's request queue; overflowing requests are
  /// rejected and their transactions aborted (§4.1.2, bound of 300).
  size_t graph_queue_bound = 300;

  /// Fault injection (message loss/duplication, site crashes) and the
  /// reliable-messaging retry policy. All knobs default to zero/off: with
  /// fault.enabled() false the injector and ack layer are never constructed
  /// and every run is bit-identical to a build without them.
  fault::FaultParams fault;

  /// Read-only transactions read without acquiring local read locks
  /// (§4.3 future work, "two-version approach"): reads never block behind
  /// replica installations and installations never wait for readers.
  /// Eager has no lock-free read path and rejects it (Validate).
  bool two_version_reads = false;

  /// Dispatch the per-operation control round trips (global read locks,
  /// pessimistic RGtests) for all operations at transaction start, overlapping
  /// their latency; operations still execute strictly in order, each after
  /// its own control response. False = fully sequential round trips.
  bool pipelined_dispatch = true;

  // -- eager baseline (2PC + strict 2PL; used only by ProtocolKind::kEager) ----
  /// How long the 2PC coordinator waits for unanimous YES votes before
  /// presuming abort: the lock timeout plus four network latencies.
  double EagerVoteTimeout() const { return timeout + 4 * network.latency; }

  // -- run control -------------------------------------------------------------
  /// Transactions submitted per run (the paper used 100,000).
  uint64_t total_txns = 10000;
  /// Transactions discarded per site as warm-up transients (paper: 5).
  int warmup_per_site = 5;
  uint64_t seed = 1;

  // -- extensions / ablations ---------------------------------------------------
  /// 0 = full replication (paper). k >= 1: each item is replicated at its
  /// primary site plus the next k-1 sites (§5 future work); k >= num_sites
  /// is full replication again.
  int replication_degree = 0;
  /// 0 = off. Otherwise the maximum concurrently executing read-only
  /// transactions per site; excess submissions wait (§4.3 gatekeeper).
  int read_gatekeeper = 0;

  double loc_tps() const { return tps / num_sites; }
  int total_items() const { return workload.items_per_site * num_sites; }
  db::SiteId PrimarySite(db::ItemId item) const {
    return placement().Primary(item);
  }
  /// Number of replicas each item has.
  int replicas_per_item() const {
    return replication_degree == 0 ? num_sites
                                   : std::min(replication_degree, num_sites);
  }
  /// True when every site holds every item, whichever way the config says
  /// it: degree 0, or a degree of at least num_sites.
  bool full_replication() const { return replicas_per_item() == num_sites; }
  /// Where the replicas live: replicas_per_item() of them per item.
  db::Placement placement() const {
    return {static_cast<uint32_t>(num_sites),
            static_cast<uint32_t>(workload.items_per_site),
            static_cast<uint32_t>(replicas_per_item())};
  }
  /// True when `site` holds a replica of `item`.
  bool HasReplica(db::ItemId item, db::SiteId site) const {
    return placement().Holds(item, site);
  }

  /// Hard-checks (LAZYREP_CHECK) what no run can start without: at least
  /// one site and one item per site, a positive load, a valid topology, and
  /// fault specs that name endpoints of it. Changes nothing.
  void Normalize();

  /// Checks that the load, the operation range and the network bandwidth
  /// are usable, that total_txns fits the 4-byte writer ids
  /// (db::kMaxTxnId), that the database's items_per_site x num_sites fits
  /// an int (INT_MAX), and that `protocol` implements everything this
  /// configuration turns on; false with a named reason in `*error`
  /// otherwise. core::System checks it at construction; lazyrep_cli checks
  /// it before Normalize, so bad input exits with the reason.
  bool Validate(ProtocolKind protocol, std::string* error) const;

  /// Builds the topology tree for the configured site count — sites only;
  /// auxiliary endpoints (the graph site) are allocated by core::System on
  /// top of the returned tree.
  net::Topology BuildTopology() const {
    return net::BuildTopology(topology, num_sites, network);
  }

  // -- the paper's study presets -------------------------------------------------
  static SystemConfig Oc3();                 ///< §4.1: 100 sites, metro ATM
  static SystemConfig Oc1();                 ///< §4.2: 100 sites, continental
  static SystemConfig Oc1Star();             ///< §4.3: 20 sites, 400 items
  static SystemConfig VsN(int num_sites);    ///< §4.4: locTPS=15, IPS=20
  /// §4.4 variant: fixed global TPS and |DB| split across `num_sites`.
  static SystemConfig VsNFixed(int num_sites, double tps, int total_items);
};

/// Renders the Table 1 parameter block for a configuration.
std::string FormatConfigTable(const SystemConfig& config);

}  // namespace lazyrep::core

#endif  // LAZYREP_CORE_CONFIG_H_
