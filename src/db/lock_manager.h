#ifndef LAZYREP_DB_LOCK_MANAGER_H_
#define LAZYREP_DB_LOCK_MANAGER_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "db/list_table.h"
#include "db/types.h"
#include "sim/condition.h"
#include "sim/process.h"
#include "sim/simulation.h"
#include "trace/trace_sink.h"

namespace lazyrep::db {

/// Lock modes of the local (and, in the locking protocol, primary-copy)
/// concurrency control.
///
/// The lazy protocols synchronize ww conflicts with the Thomas Write Rule,
/// so two writers never block each other: kUpdate is compatible with kUpdate
/// but conflicts with kShared. This matches §2.2 ("read and update
/// operations conflict") and §2.3.1 (no VS merge on ww). The eager baseline
/// instead serializes writers the textbook way with kExclusive, which
/// conflicts with every mode including itself.
enum class LockMode : uint8_t {
  kShared,     ///< read lock
  kUpdate,     ///< write lock (TWR-synchronized against other writers)
  kExclusive,  ///< write lock that excludes everything (eager strict 2PL)
};

/// Returns true when a `requested` lock may coexist with a `held` lock of
/// another transaction.
inline bool LocksCompatible(LockMode requested, LockMode held) {
  // S-S and U-U coexist; S-U conflicts; X conflicts with everything.
  return requested == held && requested != LockMode::kExclusive;
}

/// A two-phase-locking lock manager with FIFO queuing and timeout-based
/// deadlock resolution (the paper manages deadlocks purely by timeout, §3).
///
/// One instance serves one physical site (the local DBMS's transaction
/// manager); the locking protocol also uses the instances at primary sites
/// for its global read/update locks.
///
/// A transaction names each item once (the generator draws its items
/// distinct, and a replayed script that names one twice is rejected at
/// input), so it requests each item's lock once per site: there are no
/// re-acquisitions and no upgrades.
///
/// Storage: `locks_` erases an item's entry as soon as it is idle, but keeps
/// its node as a spare, with the holder vector inside it still holding its
/// capacity, and the next new entry reuses it. It stays a
/// std::unordered_map, inserted into and erased from in the same order as
/// without spares, because CrashReset's walk follows its iteration order.
/// `held_`, the items each transaction holds, is a ListTable whose lists
/// are pooled; nothing walks it in order. So at steady state an acquire
/// allocates nothing, and a ReleaseAll of a transaction that holds nothing
/// here is one probe of an open-addressed table.
class LockManager {
 public:
  explicit LockManager(sim::Simulation* sim) : sim_(sim) {}
  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  /// Acquires `mode` on `item` for `txn`, waiting at most `timeout` seconds.
  /// Returns kSignaled on grant, kTimeout on deadlock-timeout. `txn` must not
  /// already hold `item` here (named check: a protocol that asks twice has a
  /// bug).
  ///
  /// A kernel wait (sim/condition.h): an immediate grant is granted, counted
  /// and traced at the call and returns a finished task; only a request that
  /// must queue starts a coroutine.
  sim::Task<sim::WaitStatus> Acquire(TxnId txn, ItemId item, LockMode mode,
                                     sim::SimTime timeout);

  /// Releases whatever lock `txn` holds on `item`. No-op if none held.
  void Release(TxnId txn, ItemId item);

  /// Releases all locks held by `txn`.
  void ReleaseAll(TxnId txn);

  /// Amnesia-crash wipe: drops every held lock except those of transactions
  /// `keep` selects (recovery re-establishes locks of in-doubt and locally
  /// committed transactions from the log), and cancels every waiting request
  /// (their Acquire calls resume with kCancelled). Waiters resume through
  /// the event queue, never inside this call.
  void CrashReset(const std::function<bool(TxnId)>& keep);

  /// True if `txn` currently holds `mode` on `item`.
  bool Holds(TxnId txn, ItemId item, LockMode mode) const;

  /// Number of transactions currently holding a lock on `item`.
  size_t HolderCount(ItemId item) const;

  /// Number of requests currently waiting on `item`.
  size_t WaiterCount(ItemId item) const;

  /// Locks currently held by `txn` (for diagnostics/tests).
  std::vector<ItemId> HeldItems(TxnId txn) const;

  // -- statistics ----------------------------------------------------------

  uint64_t grants() const { return grants_; }
  uint64_t waits() const { return waits_; }
  uint64_t timeouts() const { return timeouts_; }
  void ResetStats();

  /// Trace hook: every Acquire resolution emits a kLockGrant/kLockDeny
  /// record at `site` (null sink = no tracing, the default).
  void set_trace(trace::TraceSink* sink, uint16_t site) {
    trace_ = sink;
    trace_site_ = site;
  }

 private:
  /// A waiting lock request. Lives on the QueueAndWait coroutine's frame;
  /// the wait queue links through it intrusively, so queuing a request
  /// performs no heap allocation.
  struct Waiter {
    explicit Waiter(sim::Simulation* sim) : shot(sim) {}
    TxnId txn = kNoTxn;
    LockMode mode = LockMode::kShared;
    sim::OneShot shot;
    Waiter* next = nullptr;
  };

  /// Intrusive FIFO of Waiters. Removal (timeout path) walks from the head —
  /// queues are short, and the erased deque did the same linear scan.
  struct WaiterQueue {
    Waiter* head = nullptr;
    Waiter* tail = nullptr;
    size_t size = 0;

    bool empty() const { return head == nullptr; }
    void PushBack(Waiter* w);
    Waiter* PopFront();
    /// Unlinks `w` if present; returns whether it was.
    bool Remove(Waiter* w);
  };

  struct ItemLock {
    // (txn, mode) pairs; small in practice.
    std::vector<std::pair<TxnId, LockMode>> holders;
    WaiterQueue queue;
  };

  /// Acquire's queued path: waits for the grant, the timeout or a
  /// CrashReset cancellation, and cleans up after the last two.
  sim::Task<sim::WaitStatus> QueueAndWait(TxnId txn, ItemId item,
                                          LockMode mode, sim::SimTime timeout);

  /// True when a request for `mode` is compatible with every holder.
  static bool CompatibleWithHolders(const ItemLock& lock, LockMode mode);
  /// Removes `txn` from `lock`'s holders; false when it holds none.
  static bool RemoveHolder(ItemLock* lock, TxnId txn);

  using LockTable = std::unordered_map<ItemId, ItemLock>;

  /// Grants queued requests from the head while compatible.
  void PumpQueue(ItemId item, ItemLock* lock);
  /// Drops the lock entry `it` if it is idle (no holders, no waiters).
  void MaybeErase(LockTable::iterator it);

  /// locks_[item], building a missing entry from a spare node when there is
  /// one; the map inserts it exactly where operator[] would have.
  LockTable::iterator LockFor(ItemId item);

  /// Emits the Acquire resolution when tracing is on. `wait` is the time
  /// spent queued (0 for immediate grants); a deny carries the WaitStatus.
  void TraceResolution(TxnId txn, ItemId item, LockMode mode,
                       sim::WaitStatus status, sim::SimTime wait) {
    if (trace_ == nullptr) return;
    trace_->Emit(status == sim::WaitStatus::kSignaled
                     ? trace::EventType::kLockGrant
                     : trace::EventType::kLockDeny,
                 sim_->Now(), txn, trace_site_, static_cast<uint8_t>(mode),
                 item, static_cast<uint64_t>(status), wait);
  }

  sim::Simulation* sim_;
  trace::TraceSink* trace_ = nullptr;
  uint16_t trace_site_ = 0;
  LockTable locks_;
  /// txn -> the items it holds here, in grant order (after a CrashReset,
  /// in locks_ order).
  ListTable<TxnId, ItemId> held_;
  std::vector<LockTable::node_type> spare_locks_;
  uint64_t grants_ = 0;
  uint64_t waits_ = 0;
  uint64_t timeouts_ = 0;
};

}  // namespace lazyrep::db

#endif  // LAZYREP_DB_LOCK_MANAGER_H_
