#ifndef LAZYREP_RG_GRAPH_SITE_H_
#define LAZYREP_RG_GRAPH_SITE_H_

#include <cstdint>
#include <deque>
#include <span>
#include <unordered_map>
#include <vector>

#include "db/types.h"
#include "hw/cpu.h"
#include "rg/replication_graph.h"
#include "sim/condition.h"
#include "sim/process.h"
#include "sim/simulation.h"

namespace lazyrep::rg {

/// Instructions to receive/decode one protocol message at the graph site
/// (an implementation constant; the paper publishes none).
inline constexpr double kGraphMessageInstr = 1000;

/// Outcome of a graph-site request, as seen by the requesting transaction.
enum class Verdict : uint8_t {
  kOk,        ///< operation / commit admitted
  kAbort,     ///< cycle through a committed transaction, wait timeout, or
              ///< optimistic-commit cycle: the transaction must abort
  kRejected,  ///< bounded queue overflow: the transaction must abort
  kUnavailable,  ///< the request or its reply could not be delivered within
                 ///< the retry budget (fault injection); synthesized by the
                 ///< protocol layer, never returned by GraphSite itself
};

/// The dedicated graph site of §3: a single-threaded server that owns the
/// global replication graph, charges the paper's instruction costs to its
/// CPU, bounds its request queue, parks pessimistic requests whose RGtest
/// found a cycle without a committed transaction, and retests them whenever
/// the graph shrinks.
class GraphSite {
 public:
  /// `queue_bound` bounds the request queue; overflowing requests are
  /// rejected and their transactions aborted (§4.1.2;
  /// SystemConfig::graph_queue_bound). `timeout` bounds how long a
  /// pessimistic request may wait on a cycle before aborting: the
  /// deadlock-timeout interval (SystemConfig::timeout).
  GraphSite(sim::Simulation* sim, hw::Cpu* cpu, ReplicationGraph* graph,
            size_t queue_bound, double timeout);
  GraphSite(const GraphSite&) = delete;
  GraphSite& operator=(const GraphSite&) = delete;

  /// The RGtest of `ops` for `txn`, registered in the graph with `origin`
  /// and `is_global` by its first request: one operation at a time under
  /// the pessimistic protocol (§2.4 step 2), the whole access set at commit
  /// under the optimistic one (§2.5 step 4). Invoke at the simulated instant
  /// the request message reaches the graph site; `ops` must stay live until
  /// the task resolves with the verdict. A cycle of uncommitted
  /// transactions parks a `may_wait` request (one operation) until a retest
  /// passes or the wait times out; any other cycle aborts, and an abort
  /// removes the transaction from the graph at once.
  sim::Task<Verdict> Test(db::TxnId txn, db::SiteId origin, bool is_global,
                          std::span<const db::Operation> ops, bool may_wait);

  /// Marks a transaction committed at its origination site (pessimistic
  /// cycle-abort rule input).
  sim::Task<void> HandleCommitted(db::TxnId txn);

  /// Removes a transaction on abort or completion: split rule, then retest
  /// of waiting requests. Idempotent.
  sim::Task<void> HandleRemove(db::TxnId txn);

  /// Charges the CPU for handling `count` protocol messages that carry no
  /// graph work (acks, completion notices). A kernel wait: await it where it
  /// is made.
  sim::Task<sim::WaitStatus> ChargeMessages(int count);

  /// True once the transaction was removed (aborted or completed here).
  bool IsFinished(db::TxnId txn) const {
    return txn < finished_.size() && finished_[txn];
  }

  // -- statistics ------------------------------------------------------------

  uint64_t tests_run() const { return tests_run_; }
  uint64_t waits() const { return waits_; }
  uint64_t wait_timeouts() const { return wait_timeouts_; }
  uint64_t rejections() const { return rejections_; }
  uint64_t cycle_aborts() const { return cycle_aborts_; }
  size_t parked_requests() const { return parked_count_; }

  hw::Cpu* cpu() { return cpu_; }
  ReplicationGraph* graph() { return graph_; }

 private:
  /// A parked request, on the frame of the ParkAndWait that waits on it.
  struct ParkedOp {
    ParkedOp(sim::Simulation* sim, db::TxnId txn, db::Operation op)
        : txn(txn), op(op), shot(sim) {}
    db::TxnId txn;
    db::Operation op;
    sim::OneShot shot;
  };

  /// Runs one RGtest under the CPU, translating costs to instructions.
  /// `bounded` selects whether the request respects the queue bound. Not a
  /// coroutine: the caller awaits the Serve itself, and `ops` must stay
  /// live until the Serve resolves.
  sim::Task<sim::WaitStatus> ServeTest(
      db::TxnId txn, std::span<const db::Operation> ops, bool bounded,
      ReplicationGraph::TestOutcome* outcome);

  /// Parks `op` for `txn` and waits for a retest verdict or timeout.
  sim::Task<Verdict> ParkAndWait(db::TxnId txn, db::Operation op);

  /// Removes a parked op after timeout/cancellation.
  void Unpark(ParkedOp* parked);

  /// Cancels every parked op of `txn` (abort path).
  void CancelParked(db::TxnId txn);

  /// Kicks the retest pump after the graph shrank.
  void ScheduleRetest();
  sim::Process RetestPump();

  sim::Simulation* sim_;
  hw::Cpu* cpu_;
  ReplicationGraph* graph_;
  size_t queue_bound_;
  double timeout_;

  /// Per-transaction FIFO of parked operations (head blocks the rest).
  std::unordered_map<db::TxnId, std::deque<ParkedOp*>> parked_;
  /// FIFO of transactions with parked heads, for fair retesting.
  std::deque<db::TxnId> wait_order_;
  size_t parked_count_ = 0;

  /// Removed transactions, one bit per id: ids run densely from 1, and a
  /// removed transaction is never admitted again.
  std::vector<bool> finished_;

  bool retest_pending_ = false;
  bool retest_running_ = false;

  uint64_t tests_run_ = 0;
  uint64_t waits_ = 0;
  uint64_t wait_timeouts_ = 0;
  uint64_t rejections_ = 0;
  uint64_t cycle_aborts_ = 0;
};

}  // namespace lazyrep::rg

#endif  // LAZYREP_RG_GRAPH_SITE_H_
