#include "db/completion_tracker.h"

#include <vector>

#include "sim/check.h"

namespace lazyrep::db {

void CompletionTracker::Register(TxnId txn, SiteId origin) {
  auto [it, inserted] = entries_.try_emplace(txn);
  LAZYREP_CHECK_MSG(inserted, "transaction registered twice");
  it->second.origin = origin;
  ++live_count_;
}

void CompletionTracker::SetRemainingCommits(TxnId txn, int remaining) {
  auto it = entries_.find(txn);
  LAZYREP_CHECK(it != entries_.end());
  it->second.remaining_commits = remaining;
}

void CompletionTracker::OnSubtxnCommitted(TxnId txn) {
  auto it = entries_.find(txn);
  LAZYREP_CHECK(it != entries_.end());
  Entry& e = it->second;
  LAZYREP_CHECK(!e.aborted && !e.completed);
  LAZYREP_CHECK(e.remaining_commits > 0);
  if (--e.remaining_commits == 0) {
    e.committed_everywhere = true;
    MaybeComplete(txn, &e);
  }
}

void CompletionTracker::AddPredecessor(TxnId txn, TxnId pred) {
  if (pred == txn || pred == kNoTxn) return;
  auto pit = entries_.find(pred);
  if (pit == entries_.end() || pit->second.completed || pit->second.aborted) {
    return;  // terminal predecessors impose no wait
  }
  auto it = entries_.find(txn);
  LAZYREP_CHECK(it != entries_.end());
  Entry& e = it->second;
  if (e.completed || e.aborted) return;  // too late to matter
  if (e.preds.insert(pred).second) {
    pit->second.deps.insert(txn);
  }
}

void CompletionTracker::ReleaseDependentEdge(TxnId pred, TxnId dep) {
  auto it = entries_.find(dep);
  if (it == entries_.end()) return;
  Entry& e = it->second;
  if (e.preds.erase(pred) > 0 && !e.completed && !e.aborted) {
    MaybeComplete(dep, &e);
  }
}

void CompletionTracker::MaybeComplete(TxnId txn, Entry* entry) {
  if (entry->completed || entry->aborted) return;
  if (!entry->committed_everywhere || !entry->preds.empty()) return;
  entry->completed = true;
  LAZYREP_CHECK(live_count_ > 0);
  --live_count_;
  if (on_completed_) on_completed_(txn);
  if (!deferred_cascade_) {
    // Central mode: edges fall immediately; cascade.
    std::vector<TxnId> deps(entry->deps.begin(), entry->deps.end());
    entry->deps.clear();
    for (TxnId dep : deps) ReleaseDependentEdge(txn, dep);
  }
}

void CompletionTracker::OnAborted(TxnId txn) {
  auto it = entries_.find(txn);
  LAZYREP_CHECK(it != entries_.end());
  Entry& e = it->second;
  LAZYREP_CHECK(!e.completed);
  if (e.aborted) return;
  e.aborted = true;
  LAZYREP_CHECK(live_count_ > 0);
  --live_count_;
  // An aborted transaction's effects vanish: dependents stop waiting on it
  // (aborts happen before any replica propagation, so no notice latency is
  // modeled even in deferred mode), and its own predecessors forget it.
  std::vector<TxnId> deps(e.deps.begin(), e.deps.end());
  e.deps.clear();
  for (TxnId dep : deps) ReleaseDependentEdge(txn, dep);
  for (TxnId pred : e.preds) {
    auto pit = entries_.find(pred);
    if (pit != entries_.end()) pit->second.deps.erase(txn);
  }
  e.preds.clear();
}

void CompletionTracker::NotifyCompletionAtSite(TxnId pred, SiteId site) {
  auto it = entries_.find(pred);
  if (it == entries_.end()) return;
  Entry& e = it->second;
  LAZYREP_CHECK_MSG(e.completed, "notice for an uncompleted transaction");
  std::vector<TxnId> local_deps;
  for (TxnId dep : e.deps) {
    auto dit = entries_.find(dep);
    if (dit != entries_.end() && dit->second.origin == site) {
      local_deps.push_back(dep);
    }
  }
  for (TxnId dep : local_deps) {
    e.deps.erase(dep);
    ReleaseDependentEdge(pred, dep);
  }
}

bool CompletionTracker::IsCompleted(TxnId txn) const {
  auto it = entries_.find(txn);
  return it != entries_.end() && it->second.completed;
}

bool CompletionTracker::IsAborted(TxnId txn) const {
  auto it = entries_.find(txn);
  return it != entries_.end() && it->second.aborted;
}

bool CompletionTracker::IsTerminal(TxnId txn) const {
  auto it = entries_.find(txn);
  if (it == entries_.end()) return true;
  return it->second.completed || it->second.aborted;
}

bool CompletionTracker::IsLive(TxnId txn) const {
  auto it = entries_.find(txn);
  if (it == entries_.end()) return false;
  return !it->second.completed && !it->second.aborted;
}

}  // namespace lazyrep::db
