#include "protocols/protocol.h"

#include <utility>

namespace lazyrep::proto {

using core::Retry;
using core::System;
using sim::WaitStatus;

sim::Task<bool> Protocol::ExecuteLocal(txn::Transaction* t, db::Operation op,
                                       std::optional<db::LockMode> lock,
                                       System::ConflictEdges* edges,
                                       System::ReadVersions* versions) {
  core::Site& origin = sys_->site(t->origin);
  if (lock.has_value()) {
    WaitStatus s = co_await origin.locks.Acquire(t->id, op.item, *lock,
                                                 sys_->config().timeout);
    if (s != WaitStatus::kSignaled) co_return false;
  }
  co_await origin.cpu.Execute(core::kOpInstr);
  co_await origin.disk.ReadPage(core::kItemBytes);
  if (op.type == db::OpType::kRead) {
    db::Timestamp version = sys_->NoteRead(*t, op.item, edges);
    if (versions != nullptr) versions->emplace_back(op.item, version);
  }
  co_return true;
}

sim::Task<txn::AbortCause> Protocol::CommitAtOrigin(txn::Transaction* t) {
  // Amnesia fencing: a crash at the origin wiped this transaction's locks
  // and buffered state — it must not commit on what did not survive.
  if (sys_->LostToCrash(*t)) co_return txn::AbortCause::kSiteFailure;
  sys_->StampCommitTimestamp(t);
  if (!t->is_update) co_return txn::AbortCause::kNone;
  // A write masked by a *terminal* newer writer cannot serialize anywhere
  // (its timestamp is too old).
  if (sys_->HasStaleWriteVsTerminal(*t)) {
    co_return txn::AbortCause::kStaleWrite;
  }
  bool committed = co_await sys_->CommitWrites(t);
  co_return committed ? txn::AbortCause::kNone
                      : txn::AbortCause::kSiteFailure;
}

sim::Task<System::ConflictEdges> Protocol::InstallAt(txn::Transaction* t,
                                                     db::SiteId dst) {
  const core::SystemConfig& cfg = sys_->config();
  core::Site& site = sys_->site(dst);
  co_await site.cpu.Execute(core::kMessageInstr);  // receive the propagation

  const bool amnesia = sys_->amnesia();
  uint32_t epoch = amnesia ? sys_->SiteEpoch(dst) : 0;
  for (;;) {
    if (amnesia && sys_->SiteEpoch(dst) != epoch) {
      // dst crashed since the payload arrived: the staged subtransaction is
      // gone. Log-shipping catch-up — wait for the replay to finish, let
      // the recovered site request the missed propagation, re-ship it, and
      // install from scratch (ApplyWrites is TWR-idempotent).
      co_await sys_->AwaitServing(dst);
      co_await sys_->SendCtrl(dst, t->origin, Retry::kAssured);  // catch-up
      size_t bytes = core::kPropagationOverheadBytes +
                     t->num_writes() * core::kItemBytes;
      co_await sys_->SendPayload(t->origin, dst, bytes, Retry::kAssured);
      co_await site.cpu.Execute(core::kMessageInstr);  // receive again
      epoch = sys_->SiteEpoch(dst);
      sys_->NoteCatchupInstall();
      continue;
    }

    // Local update locks for the installed items; a local deadlock aborts
    // and restarts the subtransaction (§2.1). The `held` locks are those of
    // the writes among ops[0, next) that dst replicates.
    size_t held = 0;
    size_t next = 0;
    bool locked = true;
    while (next < t->ops.size()) {
      const db::Operation op = t->ops[next];
      if (op.type != db::OpType::kWrite || !cfg.HasReplica(op.item, dst)) {
        ++next;
        continue;
      }
      WaitStatus s = co_await site.locks.Acquire(t->id, op.item,
                                                 db::LockMode::kUpdate,
                                                 cfg.timeout);
      if (s == WaitStatus::kSignaled) {
        ++held;
        ++next;
        continue;
      }
      // Timeout (or cancelled by a crash wipe): restart from scratch.
      ReleaseInstallLocks(*t, dst, next);
      held = 0;
      if (amnesia && sys_->SiteEpoch(dst) != epoch) {
        locked = false;  // crash mid-acquisition: back to catch-up
        break;
      }
      next = 0;
    }
    if (!locked) continue;

    for (size_t i = 0; i < held; ++i) {
      co_await site.cpu.Execute(core::kOpInstr);
    }
    System::ConflictEdges edges = co_await sys_->ApplyWrites(dst, *t);
    if (amnesia) {
      fault::SiteWal* w = sys_->wal(dst);
      sys_->AppendRedoRecords(dst, *t);
      w->Append(0);  // the receipt
      bool durable = co_await w->Force();
      ReleaseInstallLocks(*t, dst, next);
      // A crash mid-force lost the receipt: the install must re-run after
      // recovery so the redo records make it into the log.
      if (!durable || sys_->SiteEpoch(dst) != epoch) continue;
    } else {
      co_await site.disk.ForceLog(core::kLogBytes);
      ReleaseInstallLocks(*t, dst, next);
    }
    co_return edges;
  }
}

void Protocol::ReleaseInstallLocks(const txn::Transaction& t, db::SiteId dst,
                                   size_t next) {
  db::LockManager& locks = sys_->site(dst).locks;
  for (size_t i = 0; i < next; ++i) {
    const db::Operation op = t.ops[i];
    if (op.type == db::OpType::kWrite &&
        sys_->config().HasReplica(op.item, dst)) {
      locks.Release(t.id, op.item);
    }
  }
}

sim::Process Protocol::Installer(txn::Transaction* t, db::SiteId dst,
                                 sim::Countdown* /*acks*/) {
  System::ConflictEdges edges = co_await InstallAt(t, dst);
  co_await sys_->SendCtrl(dst, sys_->graph_endpoint(), Retry::kAssured);
  co_await sys_->graph_site()->ChargeMessages(1);
  sys_->DeliverEdges(edges);
  sys_->tracker().OnSubtxnCommitted(t->id);
}

sim::Task<void> Protocol::Propagate(txn::Transaction* t,
                                    const std::vector<db::SiteId>& targets,
                                    sim::Countdown* acks) {
  size_t bytes =
      core::kPropagationOverheadBytes + t->num_writes() * core::kItemBytes;
  // Named lvalue, like every fan-out callback (see Network::Multicast).
  net::Network::DeliveryFn on_payload = [this, t, acks](db::SiteId dst) {
    sys_->sim().Spawn(Installer(t, dst, acks));
  };
  return sys_->FanOutPayload(t->origin, targets, bytes, Retry::kAssured,
                             std::move(on_payload));
}

void Protocol::CompleteAtGraphSite(txn::Transaction* t) {
  sys_->sim().Spawn(GraphRemove(t->id, sys_->graph_endpoint()));
  sys_->sim().Spawn(CompletionNotice(t->origin));
}

sim::Process Protocol::CompletionNotice(db::SiteId origin) {
  // Models the message cost; the bookkeeping rides on the tracker.
  co_await sys_->SendCtrl(sys_->graph_endpoint(), origin, Retry::kAssured);
}

// A remove requested by database site `from` first travels to the graph
// site, assured; the graph site's own removes pass its endpoint.
sim::Process Protocol::GraphRemove(db::TxnId id, db::SiteId from) {
  if (from != sys_->graph_endpoint()) {
    co_await sys_->SendCtrl(from, sys_->graph_endpoint(), Retry::kAssured);
  }
  co_await sys_->graph_site()->HandleRemove(id);
}

void Protocol::BroadcastCompletion(txn::Transaction* t) {
  sys_->site(t->origin).locks.ReleaseAll(t->id);
  sys_->tracker().NotifyCompletionAtSite(t->id, t->origin);
  sys_->sim().Spawn(CompletionMulticast(t->id, t->origin));
}

sim::Process Protocol::CompletionMulticast(db::TxnId id, db::SiteId origin) {
  const core::SystemConfig& cfg = sys_->config();
  std::vector<db::SiteId> others;
  others.reserve(cfg.num_sites - 1);
  for (int s = 0; s < cfg.num_sites; ++s) {
    if (s != origin) others.push_back(static_cast<db::SiteId>(s));
  }
  // Named lvalue: see Network::Multicast for the toolchain bug this avoids.
  net::Network::DeliveryFn on_notice = [this, id, origin](db::SiteId dst) {
    sys_->sim().Spawn(CompleteAtSite(id, origin, dst));
  };
  co_await sys_->FanOutCtrl(origin, others, std::move(on_notice));
}

sim::Process Protocol::CompleteAtSite(db::TxnId id, db::SiteId origin,
                                      db::SiteId dst) {
  // Assured: a lost notice would strand the relayed locks and the
  // dependents' completion fixpoints forever.
  co_await sys_->ReceiveCtrl(origin, dst, Retry::kAssured);
  sys_->site(dst).locks.ReleaseAll(id);
  sys_->tracker().NotifyCompletionAtSite(id, dst);
}

void Protocol::AbortAtOrigin(txn::Transaction* t, txn::AbortCause cause,
                             bool remove_from_graph) {
  sys_->site(t->origin).locks.ReleaseAll(t->id);
  sys_->NoteAborted(t, cause);
  if (remove_from_graph) {
    sys_->sim().Spawn(GraphRemove(t->id, t->origin));
  }
}

void Protocol::AbortForVerdict(txn::Transaction* t, rg::Verdict v) {
  txn::AbortCause cause = v == rg::Verdict::kUnavailable
                              ? txn::AbortCause::kUnavailable
                          : v == rg::Verdict::kRejected
                              ? txn::AbortCause::kGraphRejected
                              : txn::AbortCause::kGraphAbort;
  AbortAtOrigin(t, cause, v == rg::Verdict::kUnavailable);
}

}  // namespace lazyrep::proto
