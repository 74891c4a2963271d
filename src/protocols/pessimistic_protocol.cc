#include "protocols/pessimistic_protocol.h"

namespace lazyrep::proto {

using core::Retry;
using core::System;
using db::LockMode;
using sim::WaitStatus;

sim::Process PessimisticProtocol::OpTester(txn::Transaction* t, int index,
                                           StatePtr st) {
  // The graph site tests this frame's copy of the operation.
  const db::Operation op = t->ops[index];
  const db::SiteId graph = sys_->graph_endpoint();
  bool sent = co_await sys_->SendCtrl(t->origin, graph, Retry::kBounded);
  if (!sent) {
    st->verdicts[index] = rg::Verdict::kUnavailable;
    sys_->TraceEvent(trace::EventType::kGraphTest, *t, graph, op.item,
                     static_cast<uint64_t>(rg::Verdict::kUnavailable));
    st->slots[index].Fire(WaitStatus::kCancelled);
    co_return;
  }
  rg::Verdict v = co_await sys_->graph_site()->Test(
      t->id, t->origin, t->is_update, {&op, 1}, /*may_wait=*/true);
  bool replied = co_await sys_->SendCtrl(graph, t->origin, Retry::kBounded);
  if (!replied) v = rg::Verdict::kUnavailable;  // reply never reached origin
  sys_->TraceEvent(trace::EventType::kGraphTest, *t, graph, op.item,
                   static_cast<uint64_t>(v));
  st->verdicts[index] = v;
  st->slots[index].Fire(v == rg::Verdict::kOk ? WaitStatus::kSignaled
                                              : WaitStatus::kCancelled);
}

sim::Process PessimisticProtocol::CommitNotice(txn::Transaction* t,
                                               StatePtr st) {
  co_await sys_->SendCtrl(t->origin, sys_->graph_endpoint(), Retry::kAssured);
  co_await sys_->graph_site()->HandleCommitted(t->id);
  sys_->DeliverEdges(st->edges);
  sys_->tracker().OnSubtxnCommitted(t->id);
}

sim::Process PessimisticProtocol::Execute(txn::Transaction* t) {
  const core::SystemConfig& cfg = sys_->config();
  core::Site& origin = sys_->site(t->origin);
  auto st = std::make_shared<ExecState>(t->num_ops());
  System::ReadVersions read_versions;
  const bool lock_free_reads = cfg.two_version_reads && !t->is_update;
  for (int i = 0; i < t->num_ops(); ++i) st->slots.emplace_back(&sys_->sim());
  if (cfg.pipelined_dispatch) {
    for (int i = 0; i < t->num_ops(); ++i) {
      sys_->sim().Spawn(OpTester(t, i, st));
    }
  }

  for (int i = 0; i < t->num_ops(); ++i) {
    if (!cfg.pipelined_dispatch) sys_->sim().Spawn(OpTester(t, i, st));
    co_await st->slots[i].Wait();
    if (st->verdicts[i] != rg::Verdict::kOk) {
      AbortForVerdict(t, st->verdicts[i]);
      co_return;
    }
    const db::Operation& op = t->ops[i];
    std::optional<LockMode> local_lock;  // none for two-version readers
    if (!lock_free_reads) {
      local_lock = op.type == db::OpType::kRead ? LockMode::kShared
                                                : LockMode::kUpdate;
    }
    bool executed =
        co_await ExecuteLocal(t, op, local_lock, &st->edges,
                              lock_free_reads ? &read_versions : nullptr);
    if (!executed) {
      AbortAtOrigin(t, txn::AbortCause::kLockTimeout,
                    /*remove_from_graph=*/true);
      co_return;
    }
  }

  // Two-version read validation (§4.3 exploration): commit-point
  // revalidation — every version read must still be current here, else the
  // unpinned view may mix writers into an inconsistent cut.
  if (lock_free_reads &&
      sys_->HasInvalidatedReads(t->origin, read_versions)) {
    AbortAtOrigin(t, txn::AbortCause::kTornRead, true);
    co_return;
  }

  txn::AbortCause cause = co_await CommitAtOrigin(t);
  if (cause != txn::AbortCause::kNone) {
    AbortAtOrigin(t, cause, /*remove_from_graph=*/true);
    co_return;
  }
  sys_->NoteCommitted(t);

  // Strict 2PL at the local DBMS: locks fall at local commit (the
  // replication graph, not retained locks, guards global serializability).
  origin.locks.ReleaseAll(t->id);

  sys_->sim().Spawn(CommitNotice(t, st));

  if (t->is_update) {
    // Completion owes one more commit per replica target.
    std::vector<db::SiteId> targets = sys_->ReplicaTargets(*t, t->origin);
    t->remaining_commits += static_cast<int>(targets.size());
    if (!targets.empty()) co_await Propagate(t, targets, nullptr);
  }
  // Completion is detected at the graph site (tracker); nothing to hold here.
}

void PessimisticProtocol::OnCompleted(txn::Transaction* t) {
  CompleteAtGraphSite(t);
}

}  // namespace lazyrep::proto
