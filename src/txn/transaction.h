#ifndef LAZYREP_TXN_TRANSACTION_H_
#define LAZYREP_TXN_TRANSACTION_H_

#include <algorithm>
#include <cstdint>
#include <ranges>
#include <unordered_set>
#include <vector>

#include "db/types.h"
#include "sim/event_queue.h"

namespace lazyrep::sim {
class OneShot;
}  // namespace lazyrep::sim

namespace lazyrep::txn {

/// The four global transaction states of §2.1 (Figure 1).
enum class TxnState : uint8_t {
  kActive,     ///< started, neither committed nor aborted at the origin
  kCommitted,  ///< committed at the origination site
  kAborted,    ///< aborted at the origination site
  kCompleted,  ///< committed at every site, no uncompleted predecessors
};

/// Returns "active", "committed", ...
const char* TxnStateName(TxnState state);

/// Why a transaction aborted. kNone on every non-aborted transaction.
enum class AbortCause : uint8_t {
  kNone,          ///< not aborted
  kLockTimeout,   ///< locking: deadlock-timeout while waiting for a lock
  kGraphAbort,    ///< RGtest found a fatal cycle (or graph wait timed out)
  kGraphRejected, ///< graph-site queue bound overflow
  kStaleWrite,    ///< optimistic: Thomas-write-rule certification failure
  kTornRead,      ///< optimistic: read validation failure at commit
  kUnavailable,   ///< fault injection: a required peer or the graph site was
                  ///< unreachable within the retry budget
  kSiteFailure,   ///< amnesia crash: the origin site lost the transaction's
                  ///< volatile state (or its commit record never hit the log)
  kCount,         ///< number of causes (array sizing), not a cause
};

/// Returns "none", "lock_timeout", ...
const char* AbortCauseName(AbortCause cause);

inline constexpr size_t kAbortCauseCount =
    static_cast<size_t>(AbortCause::kCount);

/// The items of the `type` operations among `ops`, in op order: a view.
inline auto ItemsOf(const std::vector<db::Operation>& ops, db::OpType type) {
  return ops | std::views::filter([type](const db::Operation& op) {
           return op.type == type;
         }) |
         std::views::transform(&db::Operation::item);
}

/// A transaction instance generated by the workload and executed by one of
/// the protocols. The record is the transaction's one copy:
/// txn::CompletionTracker keeps it for the run, and `state` is its only
/// lifecycle state.
///
/// A *global* transaction updates replicated data (with full replication,
/// every update transaction is global); all others are *local* (§2.1). Reads
/// happen only at the origination site; writes only on items whose primary
/// site is the origination site (primary-copy ownership).
struct Transaction {
  db::TxnId id = db::kNoTxn;
  db::SiteId origin = 0;
  bool is_update = false;

  /// Operations in submission order; items are distinct within a transaction.
  std::vector<db::Operation> ops;

  /// Timestamp assigned when the first operation is submitted (TWR).
  db::Timestamp ts;

  TxnState state = TxnState::kActive;

  /// Set when the transaction first aborts (first cause wins).
  AbortCause abort_cause = AbortCause::kNone;

  // Lifecycle instants (simulated seconds).
  sim::SimTime submit_time = 0;
  sim::SimTime commit_time = 0;
  sim::SimTime terminal_time = 0;  // abort or completion

  /// False for warm-up transients excluded from the measurements.
  bool measured = true;

  /// Crash epoch of the origin site when the transaction was submitted
  /// (amnesia mode). If the origin's epoch advances before the commit point,
  /// the transaction's volatile state was lost and it must abort.
  uint32_t born_epoch = 0;

  /// Amnesia mode: the commit record hit the origin's log. From this point
  /// the transaction survives crashes (its strict-2PL holds are part of the
  /// logged state recovery re-establishes), even if the coroutine has not
  /// yet reached NoteCommitted.
  bool commit_durable = false;

  /// Locking: the shot on its Execute frame that waits for completion;
  /// System fires it when the transaction completes.
  sim::OneShot* completion = nullptr;

  // The completion fixpoint's own fields (txn::CompletionTracker).
  /// Site-level commits still owed before completion: the origin's, plus
  /// one per replica target, which a protocol adds where it builds the
  /// target list (locking gathers its targets' acks before its one commit).
  int remaining_commits = 1;
  /// Uncompleted conflict predecessors `id` waits on, and the dependents
  /// that wait on `id`. Dependents complete in `deps`' iteration order, so
  /// the schedule depends on these being unordered sets of ids.
  std::unordered_set<db::TxnId> preds;
  std::unordered_set<db::TxnId> deps;

  /// The items read / written, in op order: views of `ops`, so an edit to
  /// `ops` shows at once. A filter view is not const-iterable; iterate the
  /// view where it is made or pass it by forwarding reference.
  auto Reads() const { return ItemsOf(ops, db::OpType::kRead); }
  auto Writes() const { return ItemsOf(ops, db::OpType::kWrite); }

  /// Number of operations.
  int num_ops() const { return static_cast<int>(ops.size()); }
  /// Number of write operations.
  size_t num_writes() const {
    return static_cast<size_t>(
        std::ranges::count(ops, db::OpType::kWrite, &db::Operation::type));
  }
};

}  // namespace lazyrep::txn

#endif  // LAZYREP_TXN_TRANSACTION_H_
