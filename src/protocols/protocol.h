#ifndef LAZYREP_PROTOCOLS_PROTOCOL_H_
#define LAZYREP_PROTOCOLS_PROTOCOL_H_

#include <optional>
#include <vector>

#include "core/system.h"
#include "sim/condition.h"
#include "sim/process.h"
#include "txn/transaction.h"

namespace lazyrep::proto {

/// A replication-management protocol: drives a transaction's whole lifecycle
/// (execution at the origination site, commit, lazy replica propagation,
/// completion) against the shared System substrate.
///
/// The phases the protocols share live here and in core::System; a protocol
/// keeps only how it certifies and where its acks go. A shared helper is a
/// Task awaited inline (a symmetric transfer, no event of its own) or a
/// Process spawned where the protocol spawned its own: no event moves.
class Protocol {
 public:
  explicit Protocol(core::System* system) : sys_(system) {}
  virtual ~Protocol() = default;
  Protocol(const Protocol&) = delete;
  Protocol& operator=(const Protocol&) = delete;

  /// The transaction's top-level process, spawned at submission time.
  virtual sim::Process Execute(txn::Transaction* t) = 0;

  /// Called the instant the completion tracker declares `t` completed:
  /// protocol-specific teardown, one of the two completion styles below.
  virtual void OnCompleted(txn::Transaction* t) = 0;

 protected:
  /// One operation's step at the origination site: the local `lock` (none
  /// when the reader is lock-free or the protocol's global lock already is
  /// the local one), the operation's CPU and page read, and for a read the
  /// read step (NoteRead with `edges`) plus, with `versions`, the lock-free
  /// reader's version record. False on a local lock timeout; the abort is
  /// the caller's.
  sim::Task<bool> ExecuteLocal(txn::Transaction* t, db::Operation op,
                               std::optional<db::LockMode> lock,
                               core::System::ConflictEdges* edges,
                               core::System::ReadVersions* versions);

  /// The commit point at the origination site: the amnesia fence, the TWR
  /// stamp and, for an update, the stale-write check and the commit write
  /// (CommitWrites). kNone when `t` may commit, else the abort cause. A
  /// read-only commit point schedules nothing.
  sim::Task<txn::AbortCause> CommitAtOrigin(txn::Transaction* t);

  /// Receives `t`'s write set at `dst` and installs it: update locks (a local
  /// deadlock restarts the subtransaction, §2.1), TWR apply, log force; under
  /// amnesia a crash at `dst` re-fetches the payload and installs again.
  /// Returns the conflict edges found; the ack carrying them is the caller's.
  sim::Task<core::System::ConflictEdges> InstallAt(txn::Transaction* t,
                                                   db::SiteId dst);

  /// The process a propagated write set starts at each target. Default, for
  /// the graph protocols: InstallAt, then the ack to the graph site that
  /// carries the conflict edges and the subtransaction commit.
  virtual sim::Process Installer(txn::Transaction* t, db::SiteId dst,
                                 sim::Countdown* acks);

  /// Post-commit propagation of `t`'s write set to `targets`, an assured
  /// System::FanOutPayload. Every delivery spawns Installer(t, dst, acks).
  /// `targets` must outlive the await.
  sim::Task<void> Propagate(txn::Transaction* t,
                            const std::vector<db::SiteId>& targets,
                            sim::Countdown* acks);

  /// Graph-site completion: the split rule and retests at the graph site,
  /// then a completion notice to the origination site.
  void CompleteAtGraphSite(txn::Transaction* t);

  /// Deferred-cascade completion: releases at the origin, then notifies every
  /// site so relayed locks fall and dependents' completion fixpoints advance.
  void BroadcastCompletion(txn::Transaction* t);

  /// Graph-protocol abort: releases `t`'s locks at its origin, notes the
  /// abort and, with `remove_from_graph`, asks the graph site to drop `t`.
  void AbortAtOrigin(txn::Transaction* t, txn::AbortCause cause,
                     bool remove_from_graph);

  /// Aborts `t` on a failed RGtest. Only an unavailable verdict (request or
  /// reply lost) can leave `t` in the graph, so only it sends a remove.
  void AbortForVerdict(txn::Transaction* t, rg::Verdict v);

  core::System* sys_;

 private:
  /// Releases the update locks InstallAt holds at `dst` once it has walked
  /// ops[0, next): those of the written items `dst` replicates, in op
  /// order.
  void ReleaseInstallLocks(const txn::Transaction& t, db::SiteId dst,
                           size_t next);
  sim::Process GraphRemove(db::TxnId id, db::SiteId from);
  sim::Process CompletionNotice(db::SiteId origin);
  sim::Process CompletionMulticast(db::TxnId id, db::SiteId origin);
  sim::Process CompleteAtSite(db::TxnId id, db::SiteId origin,
                              db::SiteId dst);
};

}  // namespace lazyrep::proto

#endif  // LAZYREP_PROTOCOLS_PROTOCOL_H_
