#ifndef LAZYREP_CORE_SYSTEM_H_
#define LAZYREP_CORE_SYSTEM_H_

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/history.h"
#include "core/metrics.h"
#include "db/lock_manager.h"
#include "db/item_store.h"
#include "fault/fault_injector.h"
#include "fault/reliable_channel.h"
#include "fault/wal.h"
#include "hw/cpu.h"
#include "hw/disk.h"
#include "net/network.h"
#include "rg/graph_site.h"
#include "rg/replication_graph.h"
#include "sim/condition.h"
#include "sim/process.h"
#include "sim/random.h"
#include "sim/simulation.h"
#include "core/workload_source.h"
#include "trace/trace_sink.h"
#include "txn/completion_tracker.h"
#include "txn/transaction.h"

namespace lazyrep::proto {
class Protocol;
}  // namespace lazyrep::proto

namespace lazyrep::core {

/// How hard a send tries under fault injection (with faults off every send
/// is delivered on its first attempt).
enum class Retry : uint8_t {
  /// Pre-commit traffic: up to fault.max_retries retransmissions, then the
  /// send resolves false and the caller aborts with kUnavailable.
  kBounded,
  /// Post-commit and cleanup traffic (commit, abort and completion notices,
  /// installer acks, remote lock releases, propagation): retried without
  /// bound, resolves only on delivery.
  kAssured,
};

/// One physical database site: CPU, disk array + buffer, local 2PL lock
/// manager, and its replica set (whose versions live in the System's shared
/// `versions`).
struct Site {
  Site(sim::Simulation* sim, db::SiteId id, uint64_t disk_seed,
       db::ReplicaVersions* versions)
      : id(id),
        cpu(sim, "cpu_" + std::to_string(id), kCpuMips),
        disk(sim, "disk_" + std::to_string(id), hw::DiskParams{}, disk_seed),
        locks(sim),
        store(versions, id) {}

  db::SiteId id;
  hw::Cpu cpu;
  hw::DiskSubsystem disk;
  db::LockManager locks;
  db::ItemStore store;
};

/// The complete simulated system of §3: database sites joined by an ATM star
/// network, a dedicated replication-graph site (unused by the locking and
/// eager protocols), per-site open-loop transaction generators, and one of
/// the protocols. One System instance runs one study point.
class System {
 public:
  System(const SystemConfig& config, ProtocolKind kind);
  ~System();
  System(const System&) = delete;
  System& operator=(const System&) = delete;

  /// Runs the experiment: submits config.total_txns transactions, discards
  /// warm-up transients, freezes measurements at the last submission (§4).
  MetricsSnapshot Run();

  // -- component access (protocol implementations) ----------------------------

  sim::Simulation& sim() { return sim_; }
  const SystemConfig& config() const { return config_; }
  Site& site(db::SiteId s) { return *sites_[s]; }
  /// The versions the sites' stores hold, kept once per item.
  const db::ReplicaVersions& versions() const { return *versions_; }
  net::Network& network() { return *network_; }
  /// The topology the network routes over (star by default).
  const net::Topology& topology() const { return network_->topology(); }
  txn::CompletionTracker& tracker() { return tracker_; }
  /// Null when running the locking or eager protocol.
  rg::GraphSite* graph_site() { return graph_site_.get(); }
  /// The graph site's network endpoint, allocated explicitly from the
  /// topology at construction (sites occupy 0..num_sites-1, auxiliary
  /// endpoints follow).
  db::SiteId graph_endpoint() const { return graph_endpoint_; }
  Metrics& metrics() { return metrics_; }
  /// The record of transaction `id` (kept for the whole run); null when no
  /// transaction has that id.
  txn::Transaction* FindTxn(db::TxnId id) { return tracker_.Find(id); }

  /// Sites other than `except` that hold replicas of the transaction's write
  /// set (full replication: all other sites).
  std::vector<db::SiteId> ReplicaTargets(const txn::Transaction& t,
                                         db::SiteId except) const;

  // -- lifecycle hooks ----------------------------------------------------------

  /// Assigns `t`'s Thomas-Write-Rule timestamp at the commit decision point.
  ///
  /// Deliberate deviation from §2.4/§2.5 step 1 (which stamps at the first
  /// operation): with start-time stamping, a local rw conflict can invert
  /// timestamp order relative to the local serialization order (the later
  /// transaction holds the older timestamp), and TWR then orders the
  /// versions against the only serialization order the schedule admits —
  /// breaking one-copy serializability while the replication graph stays
  /// acyclic. Commit-time stamping is consistent with every local strict-2PL
  /// serialization order. See DESIGN.md.
  void StampCommitTimestamp(txn::Transaction* t) {
    t->ts = db::Timestamp{sim_.Now(), t->id};
  }

  /// Marks `t` committed at its origination site (state, metrics, history).
  /// `response_reference` (simulated seconds), when non-negative, overrides
  /// the commit instant used for the response-time sample (measurement
  /// convention only; the state transition happens now).
  void NoteCommitted(txn::Transaction* t, sim::SimTime response_reference = -1);

  /// Marks `t` aborted (state, metrics, tracker) and drops its reader
  /// registrations at the origin. Idempotent; the first call's `cause` wins.
  void NoteAborted(txn::Transaction* t, txn::AbortCause cause);

  /// Conflict edges (dependent, predecessor) discovered at a site, delivered
  /// to the completion tracker when the carrying message arrives.
  using ConflictEdges = std::vector<std::pair<db::TxnId, db::TxnId>>;

  /// Reads `item` for `t` at its origination site (reads happen only there)
  /// and records the version for the MVSG audit and the trace. The read
  /// registers `t` as a reader of the item and appends the wr edge (the
  /// writer precedes `t`) to `edges`. With `edges` null the reader stays out
  /// of the completion dependency graph: no registration, no wr edge.
  db::Timestamp NoteRead(const txn::Transaction& t, db::ItemId item,
                         ConflictEdges* edges);

  // -- messaging --------------------------------------------------------------

  /// Sends a control message: sender CPU, network transfer, receiver CPU.
  /// Endpoints equal to graph_endpoint() skip the CPU charge there — the
  /// GraphSite accounts for its own message handling. Under faults the
  /// transfer rides the reliable channel with `retry`'s budget. Resolves
  /// true once delivered (always, with faults off or kAssured); false when
  /// a kBounded budget ran out, and then no receiver CPU is charged.
  sim::Task<bool> SendCtrl(db::SiteId from, db::SiteId to, Retry retry);

  /// Sends a bulk payload (update propagation, eager PREPARE): sender CPU
  /// and the transfer; the receiver's handling cost is the caller's
  /// business. Resolves like SendCtrl.
  sim::Task<bool> SendPayload(db::SiteId from, db::SiteId to, size_t bytes,
                              Retry retry);

  /// One control message from database site `from` to every database site
  /// in `targets`. With faults off: the sender's CPU once, one multicast of
  /// kCtrlMsgBytes, and `start_leg(dst)` as each copy lands. Under faults
  /// `start_leg(dst)` runs for every target at once and the leg sends its
  /// own copy, so every leg starts with ReceiveCtrl. `targets` must outlive
  /// the await.
  sim::Task<void> FanOutCtrl(db::SiteId from,
                             const std::vector<db::SiteId>& targets,
                             net::Network::DeliveryFn start_leg);

  /// A FanOutCtrl leg's first step at `to`. With faults off the copy has
  /// landed and this is the receive CPU's parked wait (no frame); under
  /// faults, SendCtrl's steps with `retry`'s budget. Resolves kSignaled once
  /// received, kCancelled when a kBounded budget ran out.
  sim::Task<sim::WaitStatus> ReceiveCtrl(db::SiteId from, db::SiteId to,
                                         Retry retry);

  /// A payload from `from` to every site in `targets`. With faults off: the
  /// sender's CPU once and one multicast of `bytes`; under faults one
  /// SendPayload leg per target, all started at once. Each delivery calls
  /// the one shared `on_delivered(dst)`, which spawns the receiver; a leg
  /// whose kBounded budget ran out calls nothing. `targets` must outlive the
  /// await.
  sim::Task<void> FanOutPayload(db::SiteId from,
                                const std::vector<db::SiteId>& targets,
                                size_t bytes, Retry retry,
                                net::Network::DeliveryFn on_delivered);

  /// True when fault injection is active for this run.
  bool fault_enabled() const { return injector_ != nullptr; }
  /// Null unless fault injection is active.
  fault::FaultInjector* injector() { return injector_.get(); }
  fault::ReliableChannel* channel() { return channel_.get(); }

  // -- amnesia crash semantics (all no-ops unless fault.amnesia) --------------

  /// True when crashes wipe volatile state and recovery replays the log.
  bool amnesia() const { return injector_ != nullptr && config_.fault.amnesia; }

  /// Crash epoch of site `s`, its WAL's: bumped on every amnesia crash (0
  /// without amnesia). A transaction whose origin epoch moved past its
  /// birth epoch was lost with the crash.
  uint32_t SiteEpoch(int s) const {
    return wals_.empty() ? 0 : wals_[s]->epoch();
  }

  /// True when `t`'s origin site crashed since `t` was submitted: its locks,
  /// in-flight state and any unforced log records are gone, so the executing
  /// coroutine must abort with AbortCause::kSiteFailure at its next commit
  /// point (never commit on state that did not survive).
  bool LostToCrash(const txn::Transaction& t) const {
    return amnesia() && SiteEpoch(t.origin) != t.born_epoch;
  }

  /// Per-site write-ahead log; null unless amnesia mode.
  fault::SiteWal* wal(db::SiteId s) {
    return s < static_cast<db::SiteId>(wals_.size()) ? wals_[s].get() : nullptr;
  }

  /// Resolves once `e` is up and not mid-replay. Resolves immediately when
  /// fault injection is off or the endpoint is already serving.
  sim::Task<void> AwaitServing(int e);

  /// Amnesia mode: buffers in `s`'s WAL one redo record of kItemBytes per
  /// item of `t`'s write set that `s` replicates.
  void AppendRedoRecords(db::SiteId s, const txn::Transaction& t);

  /// Commits update `t`'s writes at its origination site, under the locks
  /// the caller holds. Amnesia mode follows the WAL discipline: one redo
  /// record per write-set page plus the commit record are forced *before*
  /// the store mutates, and the result is false (nothing applied; the caller
  /// must abort with kSiteFailure) unless the force completed in `t`'s birth
  /// epoch. Otherwise the writes apply first, then the log force, and the
  /// result is always true.
  sim::Task<bool> CommitWrites(txn::Transaction* t);

  /// Recovery-metric hooks for the protocols.
  void NoteCatchupInstall() { ++catchup_installs_; }
  void NoteInDoubtResolved(bool committed) {
    if (committed) {
      ++indoubt_commit_;
    } else {
      ++indoubt_abort_;
    }
  }

  /// Post-drain audit: true when every replica-holding site stores the same
  /// version of every item. On divergence fills `why` with the first
  /// offending (item, site-pair) and returns false.
  bool ReplicasConverged(std::string* why);

  /// Transactions submitted but not yet terminal (measured or not). Zero
  /// after a clean post-run drain; nonzero means a coroutine is stranded on
  /// a wait that never resolved (the chaos harness's liveness audit).
  uint64_t LiveTxns() const { return tracker_.live_count(); }

  /// Transactions whose record the System keeps: every one submitted,
  /// terminal ones included (none is retired). A deterministic count,
  /// unlike a run's RSS.
  uint64_t RetainedTxns() const { return tracker_.size(); }

  void DeliverEdges(const ConflictEdges& edges);

  /// True when committing `t` would install a write already masked by a
  /// *terminal* newer writer: t would have to serialize before a transaction
  /// whose position is final, so t must abort ("timestamp too old"). Since
  /// every writer of an item originates at the item's primary site
  /// (ownership rule), this check is purely local to the origination site.
  bool HasStaleWriteVsTerminal(const txn::Transaction& t);

  /// Read-version records of a lock-free (two-version) reader.
  using ReadVersions = std::vector<std::pair<db::ItemId, db::Timestamp>>;

  /// Two-version read validation: a lock-free reader must not observe both
  /// a pre-W and a post-W version across one writer W's atomically installed
  /// write set (a "torn" read — the tear the read locks used to prevent).
  /// Returns true when the read set is torn and the reader must abort.
  bool HasTornReads(const ReadVersions& reads);

  /// Commit-point revalidation for lock-free readers under the graph
  /// protocols: every version read must still be the *current* version at
  /// `origin`. The view then equals the origin's store state at one instant
  /// — a consistent cut of everything installed there — which closes the
  /// multi-writer anomalies HasTornReads cannot see (reader observes
  /// post-W2 of one item and pre-W1 of another with W1 serialized before
  /// W2). Read locks used to pin such writers live until the reader
  /// committed so the RGtest saw the cycle; without them, revalidate.
  /// Strictly subsumes HasTornReads when checked at the same instant.
  bool HasInvalidatedReads(db::SiteId origin, const ReadVersions& reads);

  /// Applies `t`'s write set to `s`'s store under the Thomas Write Rule,
  /// charging disk writes, and collects the conflict edges the applies
  /// produce. Locks are the caller's responsibility.
  ///
  /// With `at_origin` true the conflict edges are delivered to the tracker
  /// immediately (the conflicting transactions are co-located with the
  /// origination site, so no network transfer is involved) and the returned
  /// list is empty; the store mutation happens synchronously before any
  /// disk await so no concurrent apply can interleave.
  sim::Task<ConflictEdges> ApplyWrites(db::SiteId s, const txn::Transaction& t,
                                       bool at_origin = false);

  /// Test-only hook: record reads/commits for serializability checking.
  void set_history(HistoryRecorder* history) { history_ = history; }

  /// Replaces the workload source (default: the Poisson GeneratedWorkload
  /// built from config.workload). The trace-replay path installs a
  /// replay::ScriptWorkload here. Must be called before Run(); `source`
  /// must be non-null.
  void set_workload_source(std::unique_ptr<WorkloadSource> source) {
    workload_ = std::move(source);
  }

  // -- event tracing (all no-ops until set_trace; see DESIGN.md §4.8) ---------

  /// Attaches a trace sink and propagates it to every site's lock manager.
  /// Null (the default) keeps the run byte-identical to an untraced one:
  /// every emission site guards on the pointer and touches nothing else.
  void set_trace(trace::TraceSink* sink);
  trace::TraceSink* trace() { return trace_; }

  /// Record.flags of a lifecycle event of `t` (the sink ORs in kFlagFrozen
  /// by itself once the measurement window is frozen).
  static uint8_t TraceFlags(const txn::Transaction& t) {
    return (t.measured ? trace::kFlagMeasured : 0) |
           (t.is_update ? trace::kFlagUpdate : 0);
  }

  /// Emits one lifecycle record for `t` at `site`; no-op when not tracing.
  void TraceEvent(trace::EventType type, const txn::Transaction& t,
                  db::SiteId site, db::ItemId item = 0, uint64_t aux = 0,
                  double aux_time = 0) {
    if (trace_ == nullptr) return;
    trace_->Emit(type, sim_.Now(), t.id, site, TraceFlags(t), item, aux,
                 aux_time);
  }

  const char* protocol_name() const;

 private:
  sim::Process GeneratorProcess(db::SiteId s, sim::RandomStream rng);
  sim::Process GatedExecute(txn::Transaction* t);
  void Submit(db::SiteId s, sim::RandomStream* rng);
  void OnTrackerCompleted(txn::Transaction* t);
  void ResetAllStats();
  void Freeze(MetricsSnapshot* snap);

  // -- amnesia crash plumbing -------------------------------------------------

  /// Injector crash hook: wipes the site's volatile state (WAL append
  /// buffer, lock manager) and with it bumps the WAL's epoch, keeping only
  /// logged survivors (in-doubt participants, committed-at-origin holders).
  /// The reliable channel keeps no per-endpoint state, so it has nothing to
  /// wipe.
  void OnSiteCrash(int e);
  /// Costed replay (ARIES-style analysis+redo from the last checkpoint).
  /// Abandons silently if the site re-crashes mid-replay.
  sim::Process RecoverSiteProcess(int e);
  /// Periodic fuzzy checkpoints: stage a checkpoint record, force, and only
  /// a completed force truncates the replay window.
  sim::Process CheckpointProcess(db::SiteId s);
  /// Releases every AwaitServing waiter parked on `e`.
  void FireServingWaiters(int e);

  SystemConfig config_;
  ProtocolKind kind_;
  sim::Simulation sim_;
  std::unique_ptr<WorkloadSource> workload_;
  /// Every replica's version and every writer's commit time, shared by the
  /// sites' stores.
  std::unique_ptr<db::ReplicaVersions> versions_;
  std::vector<std::unique_ptr<Site>> sites_;
  std::unique_ptr<net::Network> network_;
  db::SiteId graph_endpoint_ = 0;
  std::unique_ptr<hw::Cpu> graph_cpu_;
  std::unique_ptr<rg::ReplicationGraph> rgraph_;
  std::unique_ptr<rg::GraphSite> graph_site_;
  /// Every submitted transaction's record, indexed by id.
  txn::CompletionTracker tracker_;
  Metrics metrics_;
  /// Both null unless config_.fault.enabled().
  std::unique_ptr<fault::FaultInjector> injector_;
  std::unique_ptr<fault::ReliableChannel> channel_;
  /// Per-endpoint downtime at measurement-window start (availability base).
  std::vector<double> downtime_at_window_;
  // Amnesia-mode state; empty/zero otherwise.
  std::vector<std::unique_ptr<fault::SiteWal>> wals_;
  std::vector<std::vector<sim::OneShot*>> serving_waiters_;
  uint64_t site_recoveries_ = 0;
  sim::TallyStat recovery_replay_;
  uint64_t catchup_installs_ = 0;
  uint64_t indoubt_commit_ = 0;
  uint64_t indoubt_abort_ = 0;
  std::unique_ptr<proto::Protocol> protocol_;
  HistoryRecorder* history_ = nullptr;
  trace::TraceSink* trace_ = nullptr;

  // Read-only gatekeeper (§4.3 extension): per-site running count + queue.
  std::vector<int> gate_running_;
  std::vector<std::deque<sim::OneShot*>> gate_queue_;
  void GateRelease(const txn::Transaction& t);
  /// The transfer under a send: the plain network transfer with faults
  /// off, else the reliable channel with `retry`'s budget. Not a coroutine,
  /// so a send awaits the transfer itself and nests no frame.
  sim::Task<bool> Transfer(db::SiteId from, db::SiteId to, size_t bytes,
                           Retry retry);
  /// ReceiveCtrl under faults.
  sim::Task<sim::WaitStatus> SendCtrlLeg(db::SiteId from, db::SiteId to,
                                         Retry retry);
  /// One FanOutPayload leg under faults: SendPayload's steps, then the
  /// shared callback on delivery.
  sim::Process PayloadLeg(
      db::SiteId from, db::SiteId to, size_t bytes, Retry retry,
      std::shared_ptr<net::Network::DeliveryFn> on_delivered);

  /// Transactions submitted so far; the last one's id.
  uint64_t submitted_ = 0;
  std::vector<int> site_submitted_;
  bool window_open_ = false;
  bool done_ = false;
  sim::SimTime window_start_ = 0;
};

}  // namespace lazyrep::core

#endif  // LAZYREP_CORE_SYSTEM_H_
