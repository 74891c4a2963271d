#ifndef LAZYREP_CORE_METRICS_H_
#define LAZYREP_CORE_METRICS_H_

#include <array>
#include <cstdint>
#include <string>

#include "sim/stats.h"
#include "txn/transaction.h"

namespace lazyrep::core {

/// Final measurements of one run, mirroring the metrics the paper plots.
struct MetricsSnapshot {
  /// Measurement window (transient end to last submission), seconds.
  double duration = 0;

  uint64_t submitted = 0;
  uint64_t submitted_read_only = 0;
  uint64_t submitted_update = 0;
  uint64_t committed = 0;
  uint64_t completed = 0;
  uint64_t completed_read_only = 0;
  uint64_t completed_update = 0;
  uint64_t aborted = 0;
  uint64_t aborted_read_only = 0;
  uint64_t aborted_update = 0;

  /// Completed transactions per second (Figures 2, 8, 11, 15).
  double completed_tps = 0;
  /// Fraction of submitted transactions that aborted (Figures 4, 14, 16).
  double abort_rate = 0;

  /// Start -> committed, read-only transactions (Figures 5, 9).
  sim::TallyStat read_only_response;
  /// Start -> committed, update transactions (Figures 6, 10).
  sim::TallyStat update_response;
  /// Committed -> completed, update transactions (Figure 7).
  sim::TallyStat commit_to_complete;
  /// Tail behaviour of the two response series (p50/p95/p99 and max).
  sim::QuantileStat read_only_quantiles;
  sim::QuantileStat update_quantiles;

  /// Graph-site CPU utilization (Figures 3, 12, 13); 0 for locking.
  double graph_cpu_utilization = 0;
  double graph_cpu_queue = 0;
  double mean_site_cpu_utilization = 0;
  double max_site_cpu_utilization = 0;
  double mean_disk_utilization = 0;
  double max_disk_utilization = 0;
  double mean_network_utilization = 0;
  double max_network_utilization = 0;

  uint64_t lock_waits = 0;
  uint64_t lock_timeouts = 0;
  uint64_t graph_tests = 0;
  uint64_t graph_waits = 0;
  uint64_t graph_wait_timeouts = 0;
  uint64_t graph_rejections = 0;
  uint64_t graph_cycle_aborts = 0;
  uint64_t writes_ignored_twr = 0;
  /// Transactions neither terminal nor measured when the run ended.
  uint64_t in_flight_at_end = 0;

  // -- fault injection (all zero on a perfect network) -----------------------

  /// Aborts broken down by txn::AbortCause (indexed by the enum value).
  std::array<uint64_t, txn::kAbortCauseCount> aborted_by_cause{};
  /// Control-message retransmissions by the reliable-messaging layer.
  uint64_t retransmissions = 0;
  /// Reliable sends abandoned after exhausting the retry budget.
  uint64_t msg_send_failures = 0;
  /// Delivery legs dropped by the fault injector (loss or crashed endpoint).
  uint64_t faults_injected_loss = 0;
  /// Redundant message copies injected by the fault injector.
  uint64_t faults_injected_dup = 0;
  /// Site crash events (scripted and MTBF-driven), graph site included.
  uint64_t site_crashes = 0;
  /// Fraction of the measurement window each DB site was up, averaged.
  double mean_site_availability = 1.0;
  /// Worst per-DB-site availability.
  double min_site_availability = 1.0;
  /// Availability of the graph site endpoint (1 for locking).
  double graph_availability = 1.0;

  // -- crash recovery (nonzero only in amnesia mode) --------------------------

  /// Completed log replays (recoveries that reached serving state).
  uint64_t site_recoveries = 0;
  /// Wall-clock seconds per completed replay (analysis + redo).
  sim::TallyStat recovery_replay;
  /// WAL forces (group-committed log writes) across the database sites.
  uint64_t wal_forces = 0;
  /// Bytes those forces pushed to disk.
  uint64_t wal_bytes_forced = 0;
  /// Durable fuzzy checkpoints taken.
  uint64_t wal_checkpoints = 0;
  /// Redo records scanned by recovery replays.
  uint64_t wal_records_replayed = 0;
  /// Log bytes those replays read back.
  uint64_t wal_bytes_replayed = 0;
  /// Replica installs performed by post-recovery log-shipping catch-up.
  uint64_t catchup_installs = 0;
  /// Eager in-doubt transactions resolved after a crash, by outcome.
  uint64_t indoubt_resolved_commit = 0;
  uint64_t indoubt_resolved_abort = 0;
  /// Partition windows that activated / delivery legs they dropped.
  uint64_t partitions_injected = 0;
  uint64_t faults_injected_partition = 0;

  // -- eager 2PC (nonzero only under the eager protocol) ----------------------

  /// Replica-X-lock acquisition rounds started (one per written item,
  /// counting retries separately).
  uint64_t eager_lock_rounds = 0;
  /// How many of those rounds were backoff retries after a denied round.
  uint64_t eager_lock_round_retries = 0;
  /// PREPARE phases started (one per update transaction reaching commit).
  uint64_t eager_prepares = 0;
  /// Coordinator vote-collection timeouts (presumed abort).
  uint64_t eager_vote_timeouts = 0;
  /// Participant in-doubt windows: voted YES -> learned the outcome, i.e.
  /// time spent blocked holding X locks on behalf of a remote coordinator.
  sim::TallyStat eager_in_doubt;

  // -- serializability audit (filled only when history recording is on) ------

  /// MVSG verdict: -1 = not checked, 1 = one-copy serializable, 0 = a cycle
  /// was found. Set by RunAll / StudyRunner when the fleet-wide
  /// check_serializability flag is on.
  int serializable = -1;
  /// Committed transactions the HistoryRecorder captured for the check.
  uint64_t history_committed = 0;
  /// Read events the HistoryRecorder captured for the check.
  uint64_t history_reads = 0;
  /// One offending MVSG cycle's description; empty unless serializable == 0.
  std::string serializability_why;

  // -- post-run replica audit (filled only by RunAll's post_run_audit) --------

  /// Post-drain convergence verdict: -1 = not checked, 1 = every replica of
  /// every item holds the same version at every replica-holding site after
  /// faults heal and propagation quiesces, 0 = divergence found.
  int replicas_converged = -1;
  /// Transactions still live after the post-run drain (liveness check).
  uint64_t stranded_txns = 0;
  /// Description of the first divergence; empty unless converged == 0.
  std::string convergence_why;

  std::string ToString() const;
};

/// Event-driven collector; all counters cover *measured* (post-warm-up)
/// transactions only.
class Metrics {
 public:
  void OnSubmit(const txn::Transaction& t) {
    if (!t.measured) return;
    ++snap_.submitted;
    if (t.is_update) {
      ++snap_.submitted_update;
    } else {
      ++snap_.submitted_read_only;
    }
  }

  void OnCommit(const txn::Transaction& t) {
    if (!t.measured) return;
    ++snap_.committed;
    double response = t.commit_time - t.submit_time;
    if (t.is_update) {
      snap_.update_response.Add(response);
      snap_.update_quantiles.Add(response);
    } else {
      snap_.read_only_response.Add(response);
      snap_.read_only_quantiles.Add(response);
    }
  }

  void OnAbort(const txn::Transaction& t) {
    if (!t.measured) return;
    ++snap_.aborted;
    ++snap_.aborted_by_cause[static_cast<size_t>(t.abort_cause)];
    if (t.is_update) {
      ++snap_.aborted_update;
    } else {
      ++snap_.aborted_read_only;
    }
  }

  void OnComplete(const txn::Transaction& t) {
    if (!t.measured) return;
    ++snap_.completed;
    if (t.is_update) {
      ++snap_.completed_update;
      snap_.commit_to_complete.Add(t.terminal_time - t.commit_time);
    } else {
      ++snap_.completed_read_only;
    }
  }

  // -- eager 2PC hooks (called by EagerProtocol only) ------------------------

  void OnEagerLockRound(bool measured, bool retry) {
    if (!measured) return;
    ++snap_.eager_lock_rounds;
    if (retry) ++snap_.eager_lock_round_retries;
  }

  void OnEagerPrepare(bool measured) {
    if (measured) ++snap_.eager_prepares;
  }

  void OnEagerVoteTimeout(bool measured) {
    if (measured) ++snap_.eager_vote_timeouts;
  }

  void OnEagerInDoubt(bool measured, double dt) {
    if (measured) snap_.eager_in_doubt.Add(dt);
  }

  /// The snapshot under construction; System fills the utilization and
  /// derived fields at freeze time.
  MetricsSnapshot& snapshot() { return snap_; }

 private:
  MetricsSnapshot snap_;
};

}  // namespace lazyrep::core

#endif  // LAZYREP_CORE_METRICS_H_
