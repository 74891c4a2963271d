#ifndef LAZYREP_PROTOCOLS_EAGER_EAGER_PROTOCOL_H_
#define LAZYREP_PROTOCOLS_EAGER_EAGER_PROTOCOL_H_

#include <deque>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "protocols/protocol.h"
#include "sim/random.h"

namespace lazyrep::proto {

/// The eager replication baseline the paper argues against (§1): synchronous
/// strict 2PL at every replica plus a two-phase commit.
///
/// * Reads take local shared locks at the origination site (reads happen only
///   there); writes take exclusive locks at the origination site *and*, over
///   the network, at every replica site — all before the transaction commits.
/// * Distributed deadlocks resolve by lock-wait timeout: a denied replica
///   lock round is retried after a randomized exponential backoff, up to
///   core::kEagerLockRetries times, then the transaction aborts.
/// * Commit is a presumed-abort 2PC. The coordinator (the origination site)
///   multicasts PREPARE carrying the write set; participants force a prepare
///   log record, vote YES, and are then *in doubt* — blocked holding their
///   exclusive locks — until the outcome arrives (the blocked time is
///   recorded as the eager_in_doubt metric). The coordinator commits on
///   unanimous YES within EagerVoteTimeout(), else presumes abort; aborts are
///   never acked (presumed abort), commits are acked so completion timing
///   covers the full COMMIT + ACK round.
/// * Under fault injection a PREPARE that exhausts its retry budget simply
///   never reaches the participant: the coordinator's vote collection times
///   out and the presumed-abort path unwinds the prepared minority. A
///   coordinator crash after PREPARE leaves participants blocked holding
///   locks until the (retried-forever) outcome message lands after recovery
///   — the classic 2PC blocking window, measured rather than patched.
/// * The dedicated graph site is unused; completion is broadcast
///   (deferred-cascade tracking), exactly as in the locking protocol.
///
/// Deviations from a textbook 2PC are catalogued in DESIGN.md §4.5.
class EagerProtocol : public Protocol {
 public:
  explicit EagerProtocol(core::System* system) : Protocol(system) {}

  sim::Process Execute(txn::Transaction* t) override;
  void OnCompleted(txn::Transaction* t) override;

 private:
  struct ExecState {
    explicit ExecState(uint64_t backoff_seed) : backoff_seed(backoff_seed) {}
    /// The retry backoff's stream, built from `backoff_seed` at the first
    /// backoff: most transactions never back off, and seeding the stream
    /// costs more than the rest of the transaction's state.
    sim::RandomStream& Backoff() {
      if (!backoff) backoff.emplace(backoff_seed);
      return *backoff;
    }
    /// Replica X locks granted so far, for release on abort; participants
    /// that reached the prepared state release via the outcome instead.
    std::vector<std::pair<db::SiteId, db::ItemId>> granted_remote;
    /// Conflict edges discovered at the origination site.
    core::System::ConflictEdges edges;
    /// Why the replica lock phase failed.
    txn::AbortCause fail_cause = txn::AbortCause::kLockTimeout;
    /// Seed of the per-transaction backoff stream (from the config seed and
    /// the transaction id: deterministic at any --jobs level).
    uint64_t backoff_seed;
    std::optional<sim::RandomStream> backoff;
  };
  using StatePtr = std::shared_ptr<ExecState>;

  /// One replica-lock round in flight. Lives on the coordinator's frame:
  /// every leg is bounded (lock waits and reliable sends both time out) and
  /// the round wait has no deadline, so the frame outlives all legs.
  struct RoundState {
    RoundState(sim::Simulation* sim, int n) : done(sim, n) {}
    sim::Countdown done;
    int denied = 0;
    int unavailable = 0;
  };

  /// Shared 2PC state; shared_ptr because the vote wait has a timeout, so
  /// participant and outcome processes can outlive the coordinator's frame.
  struct TwoPC {
    TwoPC(sim::Simulation* sim, std::vector<db::SiteId> tgts,
          bool all_prepared)
        : targets(std::move(tgts)),
          votes(sim, static_cast<int>(targets.size())) {
      for (size_t i = 0; i < targets.size(); ++i) outcome.emplace_back(sim);
      prepared.assign(targets.size(), all_prepared ? 1 : 0);
    }
    std::vector<db::SiteId> targets;
    sim::Countdown votes;  ///< counts delivered YES votes
    /// Per-target outcome signal; participants block on theirs in doubt.
    std::deque<sim::OneShot> outcome;
    /// Which targets the PREPARE reached (all from the start when faults are
    /// off: every copy of the multicast lands).
    std::vector<char> prepared;
    bool decided = false;
    bool commit = false;
    int IndexOf(db::SiteId dst) const {
      for (size_t i = 0; i < targets.size(); ++i) {
        if (targets[i] == dst) return static_cast<int>(i);
      }
      return -1;
    }
  };
  using TwoPCPtr = std::shared_ptr<TwoPC>;

  /// Acquires X on `item` at every replica site, with backoff-retry rounds.
  /// False on failure; st->fail_cause says why.
  sim::Task<bool> AcquireReplicaLocks(txn::Transaction* t, db::ItemId item,
                                      StatePtr st);

  /// One remote lock request/grant leg of a round (a FanOutCtrl leg).
  sim::Process LockLeg(txn::Transaction* t, db::SiteId dst, db::ItemId item,
                       StatePtr st, RoundState* round);

  /// Participant state machine at `dst`: force prepare record, vote YES,
  /// block in doubt, then apply + ack (commit) or release (presumed abort).
  sim::Process Participant(txn::Transaction* t, db::SiteId dst, TwoPCPtr pc);

  /// Delivers the decided outcome to the prepared targets.
  sim::Process BroadcastOutcome(db::SiteId origin, TwoPCPtr pc);

  /// One outcome leg to `dst` (a FanOutCtrl leg): assured, so under faults
  /// the retries ride through coordinator crashes and the blocking window
  /// ends only at delivery.
  sim::Process OutcomeLeg(db::SiteId origin, TwoPCPtr pc, db::SiteId dst);

  /// Abort path: release origin locks, queue remote releases, notify.
  void AbortNow(txn::Transaction* t, StatePtr st, txn::AbortCause cause);

  /// Presumed-abort decision: abort outcome to the prepared targets, direct
  /// releases for the rest, then AbortNow.
  void PresumeAbort(txn::Transaction* t, StatePtr st, TwoPCPtr pc,
                    txn::AbortCause cause);

  /// Sends assured release notices for unprepared remote X locks.
  sim::Process ReleaseRemote(
      db::SiteId origin, db::TxnId id,
      std::vector<std::pair<db::SiteId, db::ItemId>> granted);
};

}  // namespace lazyrep::proto

#endif  // LAZYREP_PROTOCOLS_EAGER_EAGER_PROTOCOL_H_
