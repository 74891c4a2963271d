#ifndef LAZYREP_TXN_COMPLETION_TRACKER_H_
#define LAZYREP_TXN_COMPLETION_TRACKER_H_

#include <cstddef>
#include <deque>
#include <functional>

#include "db/types.h"
#include "txn/transaction.h"

namespace lazyrep::txn {

/// Holds a run's transactions and their committed → completed transition
/// (§2.1): a transaction is *completed* once (a) it has committed at every
/// site where it executes and (b) no transaction preceding it in any local
/// serialization order is still uncompleted.
///
/// The tracker keeps every registered transaction in one table indexed by
/// id, so a record keeps its address for the tracker's life. Its lifecycle
/// state is the record's `state`: the tracker moves it from active to
/// aborted and from committed to completed; the commit at the origin is the
/// caller's. The fixpoint's own fields (`remaining_commits`, `preds`,
/// `deps`) live on the record too.
///
/// Sites contribute two kinds of facts, at the simulated times the
/// corresponding messages arrive at whoever runs the tracker (the graph site
/// for the replication-graph protocols; each transaction's origination site
/// for the locking protocol):
///   * OnSubtxnCommitted — one per site-level commit;
///   * AddPredecessor — a direct conflict predecessor observed at some site.
///
/// In *central* mode (default), a completion immediately releases the
/// dependents' predecessor edges and cascades. In *deferred* mode (locking
/// protocol, where completion notices travel the network), the owner calls
/// NotifyCompletionAtSite(pred, site) as the notice reaches each site, which
/// releases only the edges of dependents originating there.
class CompletionTracker {
 public:
  /// Invoked exactly once per transaction the moment it becomes completed.
  using CompletedFn = std::function<void(Transaction*)>;

  void set_on_completed(CompletedFn fn) { on_completed_ = std::move(fn); }
  void set_deferred_cascade(bool deferred) { deferred_cascade_ = deferred; }

  /// Takes in a freshly submitted transaction and returns its record. Ids
  /// run densely from 1 in registration order.
  Transaction* Register(Transaction t);

  /// Records one site-level commit; may complete the transaction, which must
  /// have committed at its origin by then.
  void OnSubtxnCommitted(db::TxnId txn);

  /// Adds `pred` as a completion predecessor of `txn`. Ignored when the
  /// predecessor is terminal (completed or aborted), unknown, or `txn`
  /// itself.
  void AddPredecessor(db::TxnId txn, db::TxnId pred);

  /// Aborts the active `txn`; its dependents no longer wait on it.
  void OnAborted(db::TxnId txn);

  /// Deferred-cascade mode: the completion notice for `pred` has arrived at
  /// `site`; releases edges of dependents originating there.
  void NotifyCompletionAtSite(db::TxnId pred, db::SiteId site);

  /// The record of `txn`; null when it was never registered (id 0 wraps
  /// past the end).
  Transaction* Find(db::TxnId txn) {
    return txn - 1 < txns_.size() ? &txns_[txn - 1] : nullptr;
  }

  /// Terminal = completed or aborted (or never registered).
  bool IsTerminal(db::TxnId txn) const;
  /// Registered and not yet terminal.
  bool IsLive(db::TxnId txn) const { return !IsTerminal(txn); }

  /// Live (non-terminal) registered transactions.
  size_t live_count() const { return live_count_; }
  /// Registered transactions, terminal ones included: the table keeps them
  /// all.
  size_t size() const { return txns_.size(); }

 private:
  Transaction& At(db::TxnId txn);
  void MaybeComplete(Transaction* t);
  void ReleaseDependentEdge(db::TxnId pred, db::TxnId dep);

  /// Record of id i at index i - 1; a deque never moves its elements.
  std::deque<Transaction> txns_;
  CompletedFn on_completed_;
  bool deferred_cascade_ = false;
  size_t live_count_ = 0;
};

}  // namespace lazyrep::txn

#endif  // LAZYREP_TXN_COMPLETION_TRACKER_H_
