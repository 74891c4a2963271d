#ifndef LAZYREP_DB_COMPLETION_TRACKER_H_
#define LAZYREP_DB_COMPLETION_TRACKER_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "db/types.h"

namespace lazyrep::db {

/// Tracks the committed → completed transition of §2.1: a transaction is
/// *completed* once (a) it has committed at every site where it executes and
/// (b) no transaction preceding it in any local serialization order is still
/// uncompleted.
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
  using CompletedFn = std::function<void(TxnId)>;

  CompletionTracker() = default;

  void set_on_completed(CompletedFn fn) { on_completed_ = std::move(fn); }
  void set_deferred_cascade(bool deferred) { deferred_cascade_ = deferred; }

  /// Registers a freshly submitted transaction.
  void Register(TxnId txn, SiteId origin);

  /// Sets how many site-level commits the transaction still needs (1 for a
  /// local transaction, #sites for a fully replicated update).
  void SetRemainingCommits(TxnId txn, int remaining);

  /// Records one site-level commit; may complete the transaction.
  void OnSubtxnCommitted(TxnId txn);

  /// Adds `pred` as a completion predecessor of `txn`. Ignored when the
  /// predecessor is terminal (completed or aborted), unknown, or `txn`
  /// itself.
  void AddPredecessor(TxnId txn, TxnId pred);

  /// Marks `txn` aborted; its dependents no longer wait on it.
  void OnAborted(TxnId txn);

  /// Deferred-cascade mode: the completion notice for `pred` has arrived at
  /// `site`; releases edges of dependents originating there.
  void NotifyCompletionAtSite(TxnId pred, SiteId site);

  bool IsCompleted(TxnId txn) const;
  bool IsAborted(TxnId txn) const;
  /// Terminal = completed or aborted (or never registered).
  bool IsTerminal(TxnId txn) const;
  /// Registered and not yet terminal.
  bool IsLive(TxnId txn) const;

  /// Live (non-terminal) registered transactions.
  size_t live_count() const { return live_count_; }

 private:
  struct Entry {
    SiteId origin = 0;
    int remaining_commits = 1;
    bool committed_everywhere = false;
    bool completed = false;
    bool aborted = false;
    std::unordered_set<TxnId> preds;
    std::unordered_set<TxnId> deps;
  };

  void MaybeComplete(TxnId txn, Entry* entry);
  void ReleaseDependentEdge(TxnId pred, TxnId dep);

  std::unordered_map<TxnId, Entry> entries_;
  CompletedFn on_completed_;
  bool deferred_cascade_ = false;
  size_t live_count_ = 0;
};

}  // namespace lazyrep::db

#endif  // LAZYREP_DB_COMPLETION_TRACKER_H_
