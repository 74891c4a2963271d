#include "protocols/locking_protocol.h"

#include <utility>

namespace lazyrep::proto {

using core::Retry;
using core::System;
using db::LockMode;
using sim::WaitStatus;

sim::Process LockingProtocol::FetchLock(txn::Transaction* t, int index,
                                        StatePtr st) {
  const db::Operation op = t->ops[index];
  db::SiteId origin = t->origin;
  WaitStatus status;
  if (op.type == db::OpType::kWrite) {
    // Primary-copy update lock; the primary is the origin (ownership rule).
    status = co_await sys_->site(origin).locks.Acquire(
        t->id, op.item, LockMode::kUpdate, sys_->config().timeout);
    if (status == WaitStatus::kSignaled &&
        t->state == txn::TxnState::kAborted) {
      // Granted after the transaction aborted (AbortNow already released
      // everything else): give the lock back immediately.
      sys_->site(origin).locks.Release(t->id, op.item);
      status = WaitStatus::kCancelled;
    }
  } else {
    db::SiteId primary = sys_->config().PrimarySite(op.item);
    if (primary == origin) {
      status = co_await sys_->site(origin).locks.Acquire(
          t->id, op.item, LockMode::kShared, sys_->config().timeout);
      if (status == WaitStatus::kSignaled &&
          t->state == txn::TxnState::kAborted) {
        sys_->site(origin).locks.Release(t->id, op.item);
        status = WaitStatus::kCancelled;
      }
    } else {
      // Relay the read-lock request to the primary site (§2.2).
      sys_->TraceEvent(trace::EventType::kRemoteRead, *t, primary, op.item,
                       origin);
      bool relayed = co_await sys_->SendCtrl(origin, primary, Retry::kBounded);
      if (!relayed) {
        st->fail_cause = txn::AbortCause::kUnavailable;
        status = WaitStatus::kCancelled;
      } else {
        status = co_await sys_->site(primary).locks.Acquire(
            t->id, op.item, LockMode::kShared, sys_->config().timeout);
        if (status == WaitStatus::kSignaled) {
          if (t->state == txn::TxnState::kAborted) {
            // The transaction died while we were acquiring: give it back.
            sys_->site(primary).locks.Release(t->id, op.item);
            status = WaitStatus::kCancelled;
          } else {
            // Record the grant before the reply leg: if the grant message
            // never arrives, ReleaseRemoteReads still knows to clean it up.
            st->granted_remote_reads.emplace_back(primary, op.item);
            bool replied =
                co_await sys_->SendCtrl(primary, origin, Retry::kBounded);
            if (!replied) {
              st->fail_cause = txn::AbortCause::kUnavailable;
              status = WaitStatus::kCancelled;
            }
          }
        }
      }
    }
  }
  st->grants[index].Fire(status == WaitStatus::kSignaled
                             ? WaitStatus::kSignaled
                             : WaitStatus::kCancelled);
}

void LockingProtocol::AbortNow(txn::Transaction* t, StatePtr st,
                               txn::AbortCause cause) {
  sys_->site(t->origin).locks.ReleaseAll(t->id);
  if (!st->granted_remote_reads.empty()) {
    sys_->sim().Spawn(ReleaseRemoteReads(
        t->origin, t->id, std::move(st->granted_remote_reads)));
    st->granted_remote_reads.clear();
  }
  sys_->NoteAborted(t, cause);
}

sim::Process LockingProtocol::ReleaseRemoteReads(
    db::SiteId origin, db::TxnId id,
    std::vector<std::pair<db::SiteId, db::ItemId>> granted) {
  // Group per site would batch messages; individual releases are rare enough
  // (abort path only) that one control message per lock is acceptable. The
  // release must eventually arrive or the lock is stuck: retry forever.
  for (const auto& [primary, item] : granted) {
    co_await sys_->SendCtrl(origin, primary, Retry::kAssured);
    sys_->site(primary).locks.Release(id, item);
  }
}

sim::Process LockingProtocol::Installer(txn::Transaction* t, db::SiteId dst,
                                        sim::Countdown* acks) {
  System::ConflictEdges edges = co_await InstallAt(t, dst);
  // Ack to the origin, carrying this site's conflict predecessors. The
  // origin blocks on the ack countdown, so the ack must get through.
  co_await sys_->SendCtrl(dst, t->origin, Retry::kAssured);
  sys_->DeliverEdges(edges);
  acks->Arrive();
}

sim::Process LockingProtocol::Execute(txn::Transaction* t) {
  const core::SystemConfig& cfg = sys_->config();
  core::Site& origin = sys_->site(t->origin);
  auto st = std::make_shared<ExecState>();
  // §4.3 exploration: two-version readers skip read locks entirely. Unlike
  // the replication-graph protocols (whose RGtests still guard the reads),
  // the locking protocol then has no global serializability guard for
  // read-only transactions — the paper conjectures the replication-graph
  // approach benefits more from multiversioning, and this is why.
  const bool lock_free_reads = cfg.two_version_reads && !t->is_update;
  System::ReadVersions read_versions;
  if (!lock_free_reads) {
    for (int i = 0; i < t->num_ops(); ++i) st->grants.emplace_back(&sys_->sim());
    if (cfg.pipelined_dispatch) {
      for (int i = 0; i < t->num_ops(); ++i) {
        sys_->sim().Spawn(FetchLock(t, i, st));
      }
    }
  }

  for (int i = 0; i < t->num_ops(); ++i) {
    const db::Operation& op = t->ops[i];
    // A write's global update lock and a read's global lock at its own
    // primary are the local locks; a read of a remote primary also takes
    // the local read lock (it serializes against incoming installs).
    std::optional<LockMode> local_lock;
    if (!lock_free_reads) {
      if (!cfg.pipelined_dispatch) sys_->sim().Spawn(FetchLock(t, i, st));
      WaitStatus granted = co_await st->grants[i].Wait();
      if (granted != WaitStatus::kSignaled) {
        AbortNow(t, st, st->fail_cause);
        co_return;
      }
      if (op.type == db::OpType::kRead &&
          cfg.PrimarySite(op.item) != t->origin) {
        local_lock = LockMode::kShared;
      }
    }
    // Lock-free readers stay out of the completion dependency graph: with
    // no global guard their stale reads can close a dependency cycle
    // (reader waits on a read-from writer whose ww-predecessor waits on the
    // reader) and deadlock the completion fixpoint. They read the version
    // unregistered and record no wr edge — the MVSG recorder still sees the
    // read, so the lost guarantee stays measurable.
    bool executed = co_await ExecuteLocal(
        t, op, local_lock, lock_free_reads ? nullptr : &st->edges,
        lock_free_reads ? &read_versions : nullptr);
    if (!executed) {
      AbortNow(t, st, txn::AbortCause::kLockTimeout);
      co_return;
    }
  }

  // Two-version read validation (§4.3 exploration): abort on torn reads.
  // Note this guards only single-writer tears; without the replication
  // graph, multi-writer read anomalies remain possible — the reason the
  // paper expects multiversioning to favor the graph protocols.
  if (lock_free_reads && sys_->HasTornReads(read_versions)) {
    AbortNow(t, st, txn::AbortCause::kTornRead);
    co_return;
  }

  txn::AbortCause cause = co_await CommitAtOrigin(t);
  if (cause != txn::AbortCause::kNone) {
    AbortNow(t, st, cause);
    co_return;
  }
  sys_->NoteCommitted(t);
  sys_->DeliverEdges(st->edges);

  if (t->is_update) {
    std::vector<db::SiteId> targets = sys_->ReplicaTargets(*t, t->origin);
    if (!targets.empty()) {
      // Every leg must install (and ack) eventually, or the countdown would
      // never resolve.
      sim::Countdown acks(&sys_->sim(), static_cast<int>(targets.size()));
      co_await Propagate(t, targets, &acks);
      co_await acks.Wait();
    }
    // All replicas updated: the primary-copy update locks may fall (§2.2).
    for (db::ItemId item : t->Writes()) {
      origin.locks.Release(t->id, item);
    }
  }

  // Point the transaction at the completion shot before reporting the
  // commit: with no pending predecessors the tracker completes the
  // transaction synchronously, and the pre-fired shot then falls straight
  // through the wait.
  sim::OneShot completed(&sys_->sim());
  t->completion = &completed;
  sys_->tracker().OnSubtxnCommitted(t->id);
  // Read locks are retained until the transaction completes [6]; completion
  // fires the shot, and OnCompleted releases the locks.
  co_await completed.Wait();
}

void LockingProtocol::OnCompleted(txn::Transaction* t) {
  // Releases the retained read locks, here and at every primary site.
  BroadcastCompletion(t);
}

}  // namespace lazyrep::proto
