#include "protocols/eager/eager_protocol.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "sim/check.h"

namespace lazyrep::proto {

using core::Retry;
using core::System;
using db::LockMode;
using sim::WaitStatus;

sim::Process EagerProtocol::LockLeg(txn::Transaction* t, db::SiteId dst,
                                    db::ItemId item, StatePtr st,
                                    RoundState* round) {
  WaitStatus requested =
      co_await sys_->ReceiveCtrl(t->origin, dst, Retry::kBounded);
  if (requested != WaitStatus::kSignaled) {
    ++round->unavailable;
    round->done.Arrive();
    co_return;
  }
  WaitStatus s = co_await sys_->site(dst).locks.Acquire(
      t->id, item, LockMode::kExclusive, sys_->config().timeout);
  if (s == WaitStatus::kSignaled) {
    // Record the grant before the reply leg: if the grant message never
    // arrives, the abort path still knows to release this lock.
    st->granted_remote.emplace_back(dst, item);
    bool replied = co_await sys_->SendCtrl(dst, t->origin, Retry::kBounded);
    if (!replied) {
      // The coordinator never learned of the grant: treat the site as
      // unreachable (the recorded grant is released on abort).
      ++round->unavailable;
    }
  } else {
    ++round->denied;
    co_await sys_->SendCtrl(dst, t->origin, Retry::kBounded);  // deny reply
  }
  round->done.Arrive();
}

sim::Task<bool> EagerProtocol::AcquireReplicaLocks(txn::Transaction* t,
                                                   db::ItemId item,
                                                   StatePtr st) {
  const core::SystemConfig& cfg = sys_->config();
  for (int attempt = 0;; ++attempt) {
    // Sites still missing the X lock (earlier rounds' grants are kept across
    // retries — only the denied sites are re-requested).
    std::vector<db::SiteId> targets;
    for (int s = 0; s < cfg.num_sites; ++s) {
      db::SiteId dst = static_cast<db::SiteId>(s);
      if (dst == t->origin || !cfg.HasReplica(item, dst)) continue;
      bool have = false;
      for (const auto& [gs, gi] : st->granted_remote) {
        if (gs == dst && gi == item) {
          have = true;
          break;
        }
      }
      if (!have) targets.push_back(dst);
    }
    if (targets.empty()) co_return true;
    sys_->metrics().OnEagerLockRound(t->measured, attempt > 0);

    RoundState round(&sys_->sim(), static_cast<int>(targets.size()));
    // The callback must be a named lvalue: this toolchain's coroutine
    // transform runs one extra destructor on an owning prvalue temporary
    // materialized inside a co_await expression (here that would double-
    // release the captured shared_ptr). Moving from a named local instead
    // keeps exactly one destruction per object.
    net::Network::DeliveryFn on_locked =
        [this, t, item, st, &round](db::SiteId dst) {
          sys_->sim().Spawn(LockLeg(t, dst, item, st, &round));
        };
    co_await sys_->FanOutCtrl(t->origin, targets, std::move(on_locked));
    // Every leg is bounded (lock waits and reliable sends time out), so the
    // round wait needs no deadline and `round` can live on this frame.
    co_await round.done.Wait();

    if (round.unavailable > 0) {
      // Eager needs *all* replicas: an unreachable one is fatal, not
      // retryable — availability is the price of synchronous replication.
      st->fail_cause = txn::AbortCause::kUnavailable;
      co_return false;
    }
    if (round.denied == 0) co_return true;
    if (attempt >= core::kEagerLockRetries) {
      st->fail_cause = txn::AbortCause::kLockTimeout;
      co_return false;
    }
    // Randomized exponential backoff breaks the symmetry of a distributed
    // deadlock: whichever rival backs off longer re-requests into queues the
    // other has already drained.
    co_await sys_->sim().Delay(st->Backoff().Uniform01() *
                               core::kEagerBackoffBase * (1 << attempt));
  }
}

sim::Process EagerProtocol::Participant(txn::Transaction* t, db::SiteId dst,
                                        TwoPCPtr pc) {
  const core::SystemConfig& cfg = sys_->config();
  core::Site& site = sys_->site(dst);
  co_await site.cpu.Execute(core::kMessageInstr);  // receive the PREPARE
  int idx = pc->IndexOf(dst);
  LAZYREP_CHECK(idx >= 0);
  const bool amnesia = sys_->amnesia();
  uint32_t epoch = amnesia ? sys_->SiteEpoch(dst) : 0;
  if (amnesia) {
    // The replica X locks granted during execution are volatile: a crash at
    // this site since the grant wiped them, and a rival may hold them now.
    // Voting YES without the locks would certify a serialization order this
    // site no longer enforces — vote NO by silence instead (never Arrive);
    // the coordinator's vote timeout presumes abort. Crashes after this
    // check are caught by the epoch comparison below.
    for (db::ItemId item : t->Writes()) {
      if (cfg.HasReplica(item, dst) &&
          !site.locks.Holds(t->id, item, LockMode::kExclusive)) {
        site.locks.ReleaseAll(t->id);
        co_return;
      }
    }
  }
  // Process the write set into the prepare log record and force it: the YES
  // vote must survive a crash.
  size_t prepare_pages = 0;
  for (db::ItemId item : t->Writes()) {
    if (cfg.HasReplica(item, dst)) {
      co_await site.cpu.Execute(core::kOpInstr);
      ++prepare_pages;
    }
  }
  if (amnesia) {
    fault::SiteWal* w = sys_->wal(dst);
    w->Append(prepare_pages * core::kItemBytes);  // the prepare record
    bool durable = co_await w->Force();
    if (!durable || sys_->SiteEpoch(dst) != epoch) {
      // Crashed before the prepare record was durable: never voted, not in
      // doubt. The coordinator's vote timeout presumes abort.
      co_return;
    }
    w->MarkPrepared(t->id);  // in doubt: X locks now survive a crash
  } else {
    co_await site.disk.ForceLog(core::kLogBytes);
  }

  // Vote YES. From here the participant is in doubt: it no longer has the
  // right to abort unilaterally and blocks holding its X locks.
  sim::SimTime vote_at = sys_->sim().Now();
  sys_->TraceEvent(trace::EventType::kVote, *t, dst, 0, 1);
  bool voted = co_await sys_->SendCtrl(dst, t->origin, Retry::kBounded);
  if (voted) pc->votes.Arrive();  // only a *delivered* YES counts
  co_await pc->outcome[idx].Wait();
  sys_->metrics().OnEagerInDoubt(t->measured, sys_->sim().Now() - vote_at);
  // A crash during the doubt window lost everything volatile *except* this
  // transaction: the prepare record re-established it during replay, and
  // the outcome now in hand is exactly the log-inspection resolution.
  const bool crashed_in_doubt = amnesia && sys_->SiteEpoch(dst) != epoch;
  if (crashed_in_doubt) sys_->NoteInDoubtResolved(pc->commit);

  if (pc->commit) {
    System::ConflictEdges edges = co_await sys_->ApplyWrites(dst, *t);
    if (amnesia) {
      fault::SiteWal* w = sys_->wal(dst);
      // The outcome must reach the log before the locks fall; a crash
      // mid-force re-enters the doubt window (the outcome is already known,
      // so just force again after the wipe).
      for (;;) {
        sys_->AppendRedoRecords(dst, *t);
        w->Append(0);  // the outcome record
        bool durable = co_await w->Force();
        if (durable) break;
      }
      w->MarkDecided(t->id);
    } else {
      co_await site.disk.ForceLog(core::kLogBytes);
    }
    site.locks.ReleaseAll(t->id);
    // COMMIT-ACK, carrying this site's conflict predecessors; the tracker
    // learns the subtransaction commit when the ack lands at the origin.
    co_await sys_->SendCtrl(dst, t->origin, Retry::kAssured);
    sys_->DeliverEdges(edges);
    sys_->tracker().OnSubtxnCommitted(t->id);
  } else {
    // Presumed abort: release and forget, no ack. The abort outcome is not
    // forced (presumed abort never needs it on disk).
    if (amnesia) sys_->wal(dst)->MarkDecided(t->id);
    site.locks.ReleaseAll(t->id);
  }
}

sim::Process EagerProtocol::OutcomeLeg(db::SiteId origin, TwoPCPtr pc,
                                       db::SiteId dst) {
  co_await sys_->ReceiveCtrl(origin, dst, Retry::kAssured);
  pc->outcome[pc->IndexOf(dst)].Fire(WaitStatus::kSignaled);
}

sim::Process EagerProtocol::BroadcastOutcome(db::SiteId origin, TwoPCPtr pc) {
  // A target the PREPARE never reached holds nothing in doubt and starts no
  // leg (with faults off every target is prepared).
  // Named lvalue: see AcquireReplicaLocks for the toolchain bug this avoids.
  net::Network::DeliveryFn on_outcome = [this, origin, pc](db::SiteId dst) {
    if (pc->prepared[pc->IndexOf(dst)]) {
      sys_->sim().Spawn(OutcomeLeg(origin, pc, dst));
    }
  };
  co_await sys_->FanOutCtrl(origin, pc->targets, std::move(on_outcome));
}

void EagerProtocol::AbortNow(txn::Transaction* t, StatePtr st,
                             txn::AbortCause cause) {
  sys_->site(t->origin).locks.ReleaseAll(t->id);
  if (!st->granted_remote.empty()) {
    sys_->sim().Spawn(
        ReleaseRemote(t->origin, t->id, std::move(st->granted_remote)));
    st->granted_remote.clear();
  }
  sys_->NoteAborted(t, cause);
}

void EagerProtocol::PresumeAbort(txn::Transaction* t, StatePtr st,
                                 TwoPCPtr pc, txn::AbortCause cause) {
  pc->decided = true;
  pc->commit = false;
  sys_->sim().Spawn(BroadcastOutcome(t->origin, pc));
  // Prepared participants release through their abort outcome (they hold
  // the right to the locks until then); only unprepared sites' grants are
  // released directly.
  std::erase_if(st->granted_remote,
                [&](const std::pair<db::SiteId, db::ItemId>& p) {
                  int idx = pc->IndexOf(p.first);
                  return idx >= 0 && pc->prepared[idx];
                });
  AbortNow(t, st, cause);
}

sim::Process EagerProtocol::ReleaseRemote(
    db::SiteId origin, db::TxnId id,
    std::vector<std::pair<db::SiteId, db::ItemId>> granted) {
  // One assured notice per distinct site; ReleaseAll there drops every X
  // lock the transaction holds. The release must eventually arrive or the
  // locks are stuck: retry forever.
  std::vector<db::SiteId> sites;
  for (const auto& [s, item] : granted) {
    if (std::find(sites.begin(), sites.end(), s) == sites.end()) {
      sites.push_back(s);
    }
  }
  for (db::SiteId s : sites) {
    co_await sys_->SendCtrl(origin, s, Retry::kAssured);
    sys_->site(s).locks.ReleaseAll(id);
  }
}

sim::Process EagerProtocol::Execute(txn::Transaction* t) {
  const core::SystemConfig& cfg = sys_->config();
  core::Site& origin = sys_->site(t->origin);
  auto st =
      std::make_shared<ExecState>(cfg.seed ^ (0x9e3779b97f4a7c15ULL * t->id));

  // Operations execute strictly in order; a write's replica X locks are
  // acquired synchronously before the next operation starts (the textbook
  // eager discipline — no pipelined dispatch).
  for (int i = 0; i < t->num_ops(); ++i) {
    const db::Operation& op = t->ops[i];
    const bool write = op.type == db::OpType::kWrite;
    bool executed = co_await ExecuteLocal(
        t, op, write ? LockMode::kExclusive : LockMode::kShared, &st->edges,
        nullptr);
    if (!executed) {
      AbortNow(t, st, txn::AbortCause::kLockTimeout);
      co_return;
    }
    if (write) {
      bool locked = co_await AcquireReplicaLocks(t, op.item, st);
      if (!locked) {
        AbortNow(t, st, st->fail_cause);
        co_return;
      }
    }
  }

  // Amnesia fencing: a crash at the origin wiped this transaction's locks
  // and buffered state — it must not commit (or coordinate a 2PC) on what
  // did not survive.
  if (sys_->LostToCrash(*t)) {
    AbortNow(t, st, txn::AbortCause::kSiteFailure);
    co_return;
  }

  std::vector<db::SiteId> targets;
  if (t->is_update) targets = sys_->ReplicaTargets(*t, t->origin);
  if (targets.empty()) {
    // Entirely local: a read-only transaction, or an update with no replica
    // elsewhere (partial replication). An update stamps its TWR timestamp
    // and commits its writes; a read-only one keeps its submission stamp.
    if (t->is_update) {
      sys_->StampCommitTimestamp(t);
      bool committed = co_await sys_->CommitWrites(t);
      if (!committed) {
        AbortNow(t, st, txn::AbortCause::kSiteFailure);
        co_return;
      }
    }
    // Strict 2PL holds to commit, not to completion: the tracker's wr edges
    // order completions instead.
    sys_->NoteCommitted(t);
    origin.locks.ReleaseAll(t->id);
    sys_->DeliverEdges(st->edges);
    sys_->tracker().OnSubtxnCommitted(t->id);
    co_return;
  }

  // -- 2PC: PREPARE / VOTE ---------------------------------------------------
  // With faults off every PREPARE lands, so every target starts prepared:
  // a presumed abort decided before a copy lands still sends it the
  // outcome, and leaves its grants to that outcome.
  auto pc = std::make_shared<TwoPC>(&sys_->sim(), std::move(targets),
                                    /*all_prepared=*/!sys_->fault_enabled());
  // Completion owes one more commit per participant.
  t->remaining_commits += static_cast<int>(pc->targets.size());
  sys_->metrics().OnEagerPrepare(t->measured);
  sys_->TraceEvent(trace::EventType::kPrepare, *t, t->origin, 0,
                   pc->targets.size());
  size_t bytes =
      core::kPropagationOverheadBytes + t->num_writes() * core::kItemBytes;
  // A PREPARE whose bounded budget runs out never reaches the participant:
  // no vote, no locks in doubt there; the vote timeout tells the
  // coordinator. Named lvalue: see AcquireReplicaLocks.
  net::Network::DeliveryFn on_prepare = [this, t, pc](db::SiteId dst) {
    int idx = pc->IndexOf(dst);
    // Landing after the coordinator presumed abort (a commit needs every
    // vote), an unprepared target was missed by the decision's broadcast.
    const bool missed = pc->decided && !pc->prepared[idx];
    pc->prepared[idx] = 1;
    sys_->sim().Spawn(Participant(t, dst, pc));
    if (missed) sys_->sim().Spawn(OutcomeLeg(t->origin, pc, dst));
  };
  co_await sys_->FanOutPayload(t->origin, pc->targets, bytes, Retry::kBounded,
                               std::move(on_prepare));
  WaitStatus vs = co_await pc->votes.Wait(cfg.EagerVoteTimeout());

  // Coordinator crash during the vote collection: the transaction's state
  // (and any unforced commit record) is gone, so the decision falls to
  // presumed abort — exactly what a recovering coordinator's log inspection
  // would conclude, since no commit record survives.
  if (sys_->LostToCrash(*t)) {
    PresumeAbort(t, st, pc, txn::AbortCause::kSiteFailure);
    co_return;
  }

  if (vs == WaitStatus::kSignaled) {
    // Unanimous YES: commit. All writers of these items serialized behind
    // this transaction's X locks, so TWR timestamps are monotone here — no
    // stale-write certification is needed.
    sys_->StampCommitTimestamp(t);
    // The commit decision record (redo images + commit + outcome) must be
    // durable before the store mutates; losing the force to a crash means
    // no commit record survives — presumed abort, like the crash above.
    if (sys_->amnesia()) {
      sys_->wal(t->origin)->Append(0);  // the outcome record
    }
    bool committed = co_await sys_->CommitWrites(t);
    if (!committed) {
      PresumeAbort(t, st, pc, txn::AbortCause::kSiteFailure);
      co_return;
    }
    sys_->NoteCommitted(t);
    origin.locks.ReleaseAll(t->id);
    sys_->DeliverEdges(st->edges);
    pc->commit = true;
    pc->decided = true;
    sys_->sim().Spawn(BroadcastOutcome(t->origin, pc));
    sys_->tracker().OnSubtxnCommitted(t->id);
    co_return;
  }

  // Vote collection timed out (lost votes, a crashed or overloaded
  // participant): presumed abort.
  sys_->metrics().OnEagerVoteTimeout(t->measured);
  PresumeAbort(t, st, pc, txn::AbortCause::kUnavailable);
}

void EagerProtocol::OnCompleted(txn::Transaction* t) {
  BroadcastCompletion(t);
}

}  // namespace lazyrep::proto
