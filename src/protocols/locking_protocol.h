#ifndef LAZYREP_PROTOCOLS_LOCKING_PROTOCOL_H_
#define LAZYREP_PROTOCOLS_LOCKING_PROTOCOL_H_

#include <deque>
#include <memory>
#include <vector>

#include "protocols/protocol.h"

namespace lazyrep::proto {

/// The global locking protocol (§2.2; Gray et al. [10], precise version [6]).
///
/// * Every read takes a read lock at the item's *primary* site — a network
///   round trip when the primary is remote; read locks are retained until
///   the transaction completes.
/// * Every write takes an update lock on the primary copy (the origination
///   site, by the ownership rule) which conflicts with readers only (ww is
///   synchronized by the Thomas Write Rule) and is held until every replica
///   has been updated.
/// * Deadlocks resolve by timeout. The dedicated graph site is unused.
/// * Completion is broadcast so that dependents' read locks release and
///   their completion fixpoints advance (deferred-cascade tracking).
class LockingProtocol : public Protocol {
 public:
  explicit LockingProtocol(core::System* system) : Protocol(system) {}

  sim::Process Execute(txn::Transaction* t) override;
  void OnCompleted(txn::Transaction* t) override;

 private:
  struct ExecState {
    /// Per-operation lock grant slots (pipelined acquisition), each fired
    /// with its grant's status; none for a lock-free reader.
    std::deque<sim::OneShot> grants;
    /// Items whose (possibly remote) global read lock was granted, by
    /// primary site, for release on abort/completion.
    std::vector<std::pair<db::SiteId, db::ItemId>> granted_remote_reads;
    /// Conflict edges discovered at the origination site.
    core::System::ConflictEdges edges;
    /// Why a failed grant failed (kUnavailable when a lock-relay message
    /// exhausted its retry budget; lock timeout otherwise).
    txn::AbortCause fail_cause = txn::AbortCause::kLockTimeout;
  };
  using StatePtr = std::shared_ptr<ExecState>;

  /// Acquires the global lock for operation `index` and fires its grant slot.
  sim::Process FetchLock(txn::Transaction* t, int index, StatePtr st);

  /// InstallAt, then the ack to the origin that carries the conflict edges;
  /// the origin gathers the acks before its single subtransaction commit.
  sim::Process Installer(txn::Transaction* t, db::SiteId dst,
                         sim::Countdown* acks) override;

  /// Abort path: release everything, notify the tracker and metrics.
  void AbortNow(txn::Transaction* t, StatePtr st, txn::AbortCause cause);

  /// Sends asynchronous read-lock releases from `origin` for remotely held
  /// locks.
  sim::Process ReleaseRemoteReads(
      db::SiteId origin, db::TxnId id,
      std::vector<std::pair<db::SiteId, db::ItemId>> granted);
};

}  // namespace lazyrep::proto

#endif  // LAZYREP_PROTOCOLS_LOCKING_PROTOCOL_H_
