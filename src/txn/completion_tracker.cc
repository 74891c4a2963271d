#include "txn/completion_tracker.h"

#include <utility>
#include <vector>

#include "sim/check.h"

namespace lazyrep::txn {

namespace {

bool Terminal(const Transaction& t) {
  return t.state == TxnState::kCompleted || t.state == TxnState::kAborted;
}

}  // namespace

Transaction* CompletionTracker::Register(Transaction t) {
  LAZYREP_CHECK_MSG(t.id == txns_.size() + 1,
                    "transaction registered out of id order");
  ++live_count_;
  return &txns_.emplace_back(std::move(t));
}

Transaction& CompletionTracker::At(db::TxnId txn) {
  Transaction* t = Find(txn);
  LAZYREP_CHECK(t != nullptr);
  return *t;
}

void CompletionTracker::OnSubtxnCommitted(db::TxnId txn) {
  Transaction& t = At(txn);
  LAZYREP_CHECK(!Terminal(t));
  LAZYREP_CHECK(t.remaining_commits > 0);
  if (--t.remaining_commits == 0) MaybeComplete(&t);
}

void CompletionTracker::AddPredecessor(db::TxnId txn, db::TxnId pred) {
  if (pred == txn || pred == db::kNoTxn) return;
  Transaction* p = Find(pred);
  if (p == nullptr || Terminal(*p)) {
    return;  // terminal predecessors impose no wait
  }
  Transaction& t = At(txn);
  if (Terminal(t)) return;  // too late to matter
  if (t.preds.insert(pred).second) p->deps.insert(txn);
}

void CompletionTracker::ReleaseDependentEdge(db::TxnId pred, db::TxnId dep) {
  Transaction& t = At(dep);
  if (t.preds.erase(pred) > 0 && !Terminal(t)) MaybeComplete(&t);
}

void CompletionTracker::MaybeComplete(Transaction* t) {
  if (Terminal(*t)) return;
  if (t->remaining_commits > 0 || !t->preds.empty()) return;
  LAZYREP_CHECK_MSG(t->state == TxnState::kCommitted,
                    "completed before its origin commit");
  t->state = TxnState::kCompleted;
  LAZYREP_CHECK(live_count_ > 0);
  --live_count_;
  if (on_completed_) on_completed_(t);
  if (!deferred_cascade_) {
    // Central mode: edges fall immediately; cascade.
    std::vector<db::TxnId> deps(t->deps.begin(), t->deps.end());
    t->deps.clear();
    for (db::TxnId dep : deps) ReleaseDependentEdge(t->id, dep);
  }
}

void CompletionTracker::OnAborted(db::TxnId txn) {
  Transaction& t = At(txn);
  LAZYREP_CHECK(t.state == TxnState::kActive);
  t.state = TxnState::kAborted;
  LAZYREP_CHECK(live_count_ > 0);
  --live_count_;
  // An aborted transaction's effects vanish: dependents stop waiting on it
  // (aborts happen before any replica propagation, so no notice latency is
  // modeled even in deferred mode), and its own predecessors forget it.
  std::vector<db::TxnId> deps(t.deps.begin(), t.deps.end());
  t.deps.clear();
  for (db::TxnId dep : deps) ReleaseDependentEdge(txn, dep);
  for (db::TxnId pred : t.preds) At(pred).deps.erase(txn);
  t.preds.clear();
}

void CompletionTracker::NotifyCompletionAtSite(db::TxnId pred,
                                               db::SiteId site) {
  Transaction* p = Find(pred);
  if (p == nullptr) return;
  LAZYREP_CHECK_MSG(p->state == TxnState::kCompleted,
                    "notice for an uncompleted transaction");
  std::vector<db::TxnId> local_deps;
  for (db::TxnId dep : p->deps) {
    if (At(dep).origin == site) local_deps.push_back(dep);
  }
  for (db::TxnId dep : local_deps) {
    p->deps.erase(dep);
    ReleaseDependentEdge(pred, dep);
  }
}

bool CompletionTracker::IsTerminal(db::TxnId txn) const {
  return txn - 1 >= txns_.size() || Terminal(txns_[txn - 1]);
}

}  // namespace lazyrep::txn
