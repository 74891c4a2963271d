// Unit tests for the local-DBMS substrate (src/db): lock manager and item
// store with the Thomas Write Rule.

#include <algorithm>
#include <map>
#include <random>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "db/item_store.h"
#include "db/list_table.h"
#include "db/lock_manager.h"
#include "db/types.h"
#include "sim/frame_pool.h"
#include "sim/process.h"
#include "sim/simulation.h"

namespace lazyrep::db {
namespace {

using sim::Process;
using sim::Simulation;
using sim::WaitStatus;

Process AcquireLock(Simulation* sim, LockManager* lm, TxnId txn, ItemId item,
                    LockMode mode, sim::SimTime timeout, WaitStatus* status,
                    double* when) {
  *status = co_await lm->Acquire(txn, item, mode, timeout);
  *when = sim->Now();
}

// ---------------------------------------------------------------------------
// LockManager
// ---------------------------------------------------------------------------

TEST(LockManagerTest, SharedLocksCoexist) {
  Simulation sim;
  LockManager lm(&sim);
  WaitStatus s1, s2;
  double t1, t2;
  sim.Spawn(AcquireLock(&sim, &lm, 1, 5, LockMode::kShared, 1.0, &s1, &t1));
  sim.Spawn(AcquireLock(&sim, &lm, 2, 5, LockMode::kShared, 1.0, &s2, &t2));
  sim.Run();
  EXPECT_EQ(s1, WaitStatus::kSignaled);
  EXPECT_EQ(s2, WaitStatus::kSignaled);
  EXPECT_EQ(lm.HolderCount(5), 2u);
}

TEST(LockManagerTest, UpdateLocksCoexistBecauseOfTwr) {
  Simulation sim;
  LockManager lm(&sim);
  WaitStatus s1, s2;
  double t1, t2;
  sim.Spawn(AcquireLock(&sim, &lm, 1, 5, LockMode::kUpdate, 1.0, &s1, &t1));
  sim.Spawn(AcquireLock(&sim, &lm, 2, 5, LockMode::kUpdate, 1.0, &s2, &t2));
  sim.Run();
  EXPECT_EQ(s1, WaitStatus::kSignaled);
  EXPECT_EQ(s2, WaitStatus::kSignaled);  // ww never blocks
  EXPECT_DOUBLE_EQ(t2, 0.0);
}

TEST(LockManagerTest, SharedBlocksUpdateUntilRelease) {
  Simulation sim;
  LockManager lm(&sim);
  WaitStatus s1, s2;
  double t1, t2;
  sim.Spawn(AcquireLock(&sim, &lm, 1, 5, LockMode::kShared, 10.0, &s1, &t1));
  sim.Spawn(AcquireLock(&sim, &lm, 2, 5, LockMode::kUpdate, 10.0, &s2, &t2));
  sim.ScheduleCallbackAt(3.0, [&] { lm.Release(1, 5); });
  sim.Run();
  EXPECT_EQ(s2, WaitStatus::kSignaled);
  EXPECT_DOUBLE_EQ(t2, 3.0);
}

TEST(LockManagerTest, UpdateBlocksShared) {
  Simulation sim;
  LockManager lm(&sim);
  WaitStatus s1, s2;
  double t1, t2;
  sim.Spawn(AcquireLock(&sim, &lm, 1, 5, LockMode::kUpdate, 10.0, &s1, &t1));
  sim.Spawn(AcquireLock(&sim, &lm, 2, 5, LockMode::kShared, 10.0, &s2, &t2));
  sim.ScheduleCallbackAt(2.0, [&] { lm.ReleaseAll(1); });
  sim.Run();
  EXPECT_EQ(s2, WaitStatus::kSignaled);
  EXPECT_DOUBLE_EQ(t2, 2.0);
}

TEST(LockManagerTest, WaiterTimesOut) {
  Simulation sim;
  LockManager lm(&sim);
  WaitStatus s1, s2;
  double t1, t2;
  sim.Spawn(AcquireLock(&sim, &lm, 1, 5, LockMode::kUpdate, 10.0, &s1, &t1));
  sim.Spawn(AcquireLock(&sim, &lm, 2, 5, LockMode::kShared, 0.5, &s2, &t2));
  sim.Run();
  EXPECT_EQ(s2, WaitStatus::kTimeout);
  EXPECT_DOUBLE_EQ(t2, 0.5);
  EXPECT_EQ(lm.timeouts(), 1u);
  EXPECT_EQ(lm.WaiterCount(5), 0u);  // the timed-out waiter left the queue
}

TEST(LockManagerTest, FifoOrderAmongWaiters) {
  Simulation sim;
  LockManager lm(&sim);
  WaitStatus s1, s2, s3;
  double t1, t2, t3;
  sim.Spawn(AcquireLock(&sim, &lm, 1, 5, LockMode::kShared, 99.0, &s1, &t1));
  sim.Spawn(AcquireLock(&sim, &lm, 2, 5, LockMode::kUpdate, 99.0, &s2, &t2));
  // Txn 3's shared request queues behind txn 2's update (FIFO, no starvation
  // of writers).
  sim.Spawn(AcquireLock(&sim, &lm, 3, 5, LockMode::kShared, 99.0, &s3, &t3));
  sim.ScheduleCallbackAt(1.0, [&] { lm.ReleaseAll(1); });
  sim.ScheduleCallbackAt(2.0, [&] { lm.ReleaseAll(2); });
  sim.Run();
  EXPECT_DOUBLE_EQ(t2, 1.0);
  EXPECT_DOUBLE_EQ(t3, 2.0);
}

TEST(LockManagerTest, ExclusiveExcludesEveryMode) {
  // The eager baseline's strict-2PL mode: X conflicts with S, U, and X.
  Simulation sim;
  LockManager lm(&sim);
  WaitStatus sx, ss, su, sx2;
  double tx, ts, tu, tx2;
  sim.Spawn(AcquireLock(&sim, &lm, 1, 5, LockMode::kExclusive, 99.0, &sx,
                        &tx));
  sim.Spawn(AcquireLock(&sim, &lm, 2, 5, LockMode::kShared, 1.0, &ss, &ts));
  sim.Spawn(AcquireLock(&sim, &lm, 3, 5, LockMode::kUpdate, 1.0, &su, &tu));
  sim.Spawn(AcquireLock(&sim, &lm, 4, 5, LockMode::kExclusive, 1.0, &sx2,
                        &tx2));
  sim.Run();
  EXPECT_EQ(sx, WaitStatus::kSignaled);
  EXPECT_EQ(ss, WaitStatus::kTimeout);
  EXPECT_EQ(su, WaitStatus::kTimeout);
  EXPECT_EQ(sx2, WaitStatus::kTimeout);
  EXPECT_EQ(lm.HolderCount(5), 1u);
}

TEST(LockManagerTest, ReleaseAllFreesEverything) {
  Simulation sim;
  LockManager lm(&sim);
  WaitStatus s;
  double t;
  for (ItemId i = 0; i < 5; ++i) {
    sim.Spawn(AcquireLock(&sim, &lm, 7, i, LockMode::kUpdate, 1.0, &s, &t));
  }
  sim.Run();
  EXPECT_EQ(lm.HeldItems(7).size(), 5u);
  lm.ReleaseAll(7);
  EXPECT_EQ(lm.HeldItems(7).size(), 0u);
  for (ItemId i = 0; i < 5; ++i) EXPECT_EQ(lm.HolderCount(i), 0u);
}

TEST(LockManagerTest, TimeoutOfMiddleWaiterUnblocksOthers) {
  Simulation sim;
  LockManager lm(&sim);
  WaitStatus s1, s2, s3;
  double t1, t2, t3;
  sim.Spawn(AcquireLock(&sim, &lm, 1, 5, LockMode::kShared, 99.0, &s1, &t1));
  // Txn 2 queues an update with a short timeout; txn 3's shared queues after.
  sim.Spawn(AcquireLock(&sim, &lm, 2, 5, LockMode::kUpdate, 0.5, &s2, &t2));
  sim.Spawn(AcquireLock(&sim, &lm, 3, 5, LockMode::kShared, 99.0, &s3, &t3));
  sim.Run();
  EXPECT_EQ(s2, WaitStatus::kTimeout);
  EXPECT_EQ(s3, WaitStatus::kSignaled);
  // Txn 3 granted right when txn 2 left the queue (compatible with holder 1).
  EXPECT_DOUBLE_EQ(t3, 0.5);
}

TEST(LockManagerTest, CrashResetKeepsSurvivorsAndCancelsWaiters) {
  Simulation sim;
  LockManager lm(&sim);
  WaitStatus s1, s2, s3;
  double t1, t2, t3;
  // Txn 1 holds item 5 exclusively (via update, sole holder semantics rely
  // on the queue); txn 2 waits behind it; txn 3 holds item 6.
  sim.Spawn(AcquireLock(&sim, &lm, 1, 5, LockMode::kShared, 99.0, &s1, &t1));
  sim.Spawn(AcquireLock(&sim, &lm, 2, 5, LockMode::kUpdate, 99.0, &s2, &t2));
  sim.Spawn(AcquireLock(&sim, &lm, 3, 6, LockMode::kUpdate, 99.0, &s3, &t3));
  sim.Run(1.0);  // bounded: txn 2 must still be queued, not timed out
  ASSERT_EQ(s1, WaitStatus::kSignaled);
  ASSERT_EQ(s3, WaitStatus::kSignaled);

  // The crash keeps txn 3 (in-doubt survivor) and wipes everything else.
  lm.CrashReset([](TxnId id) { return id == 3; });
  sim.Run(2.0);

  EXPECT_EQ(s2, WaitStatus::kCancelled);  // waiter woken, not granted
  EXPECT_EQ(lm.HeldItems(1).size(), 0u);
  EXPECT_EQ(lm.HolderCount(5), 0u);
  EXPECT_TRUE(lm.Holds(3, 6, LockMode::kUpdate));
  ASSERT_EQ(lm.HeldItems(3).size(), 1u);
  EXPECT_EQ(lm.HeldItems(3)[0], 6u);

  // The wiped item is immediately grantable to a new transaction.
  WaitStatus s4;
  double t4;
  sim.Spawn(AcquireLock(&sim, &lm, 4, 5, LockMode::kUpdate, 1.0, &s4, &t4));
  sim.Run(3.0);
  EXPECT_EQ(s4, WaitStatus::kSignaled);
}

/// Acquire that records its grant in a held-index model. A transaction has
/// at most one request pending, so its grants reach the model in the order
/// the lock manager appends them to its held list.
Process AcquireIntoModel(LockManager* lm, TxnId txn, ItemId item,
                         LockMode mode, std::vector<std::vector<ItemId>>* model,
                         std::vector<char>* pending) {
  const WaitStatus status = co_await lm->Acquire(txn, item, mode, 1e9);
  if (status == WaitStatus::kSignaled) (*model)[txn].push_back(item);
  (*pending)[txn] = 0;
}

// The held index against a vector-per-transaction model: seeded random
// acquires (shared and exclusive, so requests queue and are granted by the
// pumps of later releases), single releases and ReleaseAlls, some of them
// for a transaction that holds nothing. The clock stays at 0: after each
// operation the simulation fires that instant's wake-ups, never a timeout.
// HeldItems must equal the model element by element after every operation.
// Every 250 operations a CrashReset keeps a random half of the
// transactions; the index is rebuilt in the lock table's order, so the kept
// lists must equal the model as sets, and the model then takes that order.
TEST(LockManagerTest, HeldIndexMatchesVectorPerTxnModel) {
  constexpr TxnId kTxns = 24;
  constexpr ItemId kItems = 16;
  for (uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    std::mt19937_64 rng(seed);
    auto below = [&rng](uint64_t n) { return rng() % n; };
    Simulation sim;
    LockManager lm(&sim);
    std::vector<std::vector<ItemId>> model(kTxns + 1);
    std::vector<char> pending(kTxns + 1, 0);
    int releases_of_nothing = 0;
    int resets = 0;
    auto sorted = [](std::vector<ItemId> v) {
      std::sort(v.begin(), v.end());
      return v;
    };
    for (int op = 1; op <= 5000; ++op) {
      const TxnId txn = 1 + below(kTxns);
      std::vector<ItemId>& held = model[txn];
      const uint64_t kind = below(100);
      if (kind < 55) {
        const auto item = static_cast<ItemId>(below(kItems));
        if (!pending[txn] &&
            std::find(held.begin(), held.end(), item) == held.end()) {
          pending[txn] = 1;
          const LockMode mode =
              below(3) == 0 ? LockMode::kExclusive : LockMode::kShared;
          sim.Spawn(AcquireIntoModel(&lm, txn, item, mode, &model, &pending));
        }
      } else if (kind < 75) {
        if (!held.empty()) {
          const ItemId item = held[below(held.size())];
          lm.Release(txn, item);
          std::erase(held, item);
        }
      } else {
        if (held.empty()) ++releases_of_nothing;
        lm.ReleaseAll(txn);
        held.clear();
      }
      sim.Run(sim.Now());
      for (TxnId t = 1; t <= kTxns; ++t) {
        ASSERT_EQ(lm.HeldItems(t), model[t]) << "txn " << t << ", op " << op;
      }
      if (op % 250 != 0) continue;
      std::vector<char> keep(kTxns + 1);
      for (TxnId t = 1; t <= kTxns; ++t) keep[t] = below(2) == 0;
      lm.CrashReset([&keep](TxnId t) { return keep[t] != 0; });
      ++resets;
      for (TxnId t = 1; t <= kTxns; ++t) {
        if (!keep[t]) model[t].clear();
        ASSERT_EQ(sorted(lm.HeldItems(t)), sorted(model[t])) << "txn " << t;
        model[t] = lm.HeldItems(t);
      }
      sim.Run(sim.Now());  // the cancelled waiters clean up
    }
    EXPECT_GT(lm.waits(), 200u);
    EXPECT_GT(releases_of_nothing, 200);
    EXPECT_EQ(resets, 20);
    // Drain: release everything until no request is left waiting.
    while (std::find(pending.begin(), pending.end(), 1) != pending.end()) {
      for (TxnId t = 1; t <= kTxns; ++t) lm.ReleaseAll(t);
      sim.Run(sim.Now());
    }
    for (TxnId t = 1; t <= kTxns; ++t) lm.ReleaseAll(t);
    for (ItemId i = 0; i < kItems; ++i) EXPECT_EQ(lm.HolderCount(i), 0u);
  }
}

// ReleaseAll's hand-off: a detached list is out of the table but not in the
// pool, so no new key is handed it while it is read, and its values stay
// readable through Detached() while the slot array and the pool of lists
// grow; once recycled, the next new key takes it, cleared, with its storage.
TEST(ListTableTest, DetachedListIsNotReusedUntilRecycled) {
  ListTable<TxnId, ItemId> table;
  std::vector<ItemId>& first = table.FindOrInsert(7);
  for (ItemId i = 0; i < 5; ++i) first.push_back(100 + i);
  const size_t pos = table.Find(7);
  ASSERT_NE(pos, table.kNotFound);
  const uint32_t list = table.Detach(pos);
  EXPECT_EQ(table.Find(7), table.kNotFound);
  const std::span<const ItemId> held = table.Detached(list);
  for (TxnId key = 1000; key < 1200; ++key) {
    std::vector<ItemId>& fresh = table.FindOrInsert(key);
    ASSERT_TRUE(fresh.empty()) << "key " << key;
    fresh.push_back(static_cast<ItemId>(key));
  }
  EXPECT_GT(table.slot_count(), 256u);
  EXPECT_EQ(std::vector<ItemId>(held.begin(), held.end()),
            (std::vector<ItemId>{100, 101, 102, 103, 104}));
  table.Recycle(list);
  std::vector<ItemId>& reused = table.FindOrInsert(7);
  EXPECT_TRUE(reused.empty());
  EXPECT_EQ(reused.data(), held.data());
  for (TxnId key = 1000; key < 1200; ++key) {
    const size_t at = table.Find(key);
    ASSERT_NE(at, table.kNotFound) << "key " << key;
    EXPECT_EQ(table.At(at), std::vector<ItemId>{static_cast<ItemId>(key)});
  }
}

/// Acquire that records the frames its call built, besides the status. The
/// call and the co_await are split only to read the count in between;
/// nothing runs there.
Process AcquireCountingFrames(LockManager* lm, TxnId txn, ItemId item,
                              LockMode mode, sim::SimTime timeout,
                              WaitStatus* status, uint64_t* frames) {
  const uint64_t frames0 = sim::FramePoolThreadStats().frames();
  sim::Task<WaitStatus> wait = lm->Acquire(txn, item, mode, timeout);
  *frames = sim::FramePoolThreadStats().frames() - frames0;
  *status = co_await wait;
}

TEST(LockManagerTest, OnlyAQueuedRequestBuildsAFrame) {
  Simulation sim;
  LockManager lm(&sim);
  WaitStatus status[6];
  uint64_t frames[6];
  // Three immediate grants resolve at the call.
  sim.Spawn(AcquireCountingFrames(&lm, 1, 5, LockMode::kShared, 9.0,
                                  &status[0], &frames[0]));
  sim.Spawn(AcquireCountingFrames(&lm, 6, 7, LockMode::kShared, 9.0,
                                  &status[1], &frames[1]));
  sim.Spawn(AcquireCountingFrames(&lm, 3, 6, LockMode::kShared, 9.0,
                                  &status[2], &frames[2]));
  // Three requests queue: txn 2 is granted when txn 1 releases at t = 1,
  // txn 4 times out at t = 0.5, and a crash wipe at t = 1.5 cancels txn 5.
  sim.Spawn(AcquireCountingFrames(&lm, 2, 5, LockMode::kUpdate, 9.0,
                                  &status[3], &frames[3]));
  sim.Spawn(AcquireCountingFrames(&lm, 4, 6, LockMode::kUpdate, 0.5,
                                  &status[4], &frames[4]));
  sim.Spawn(AcquireCountingFrames(&lm, 5, 6, LockMode::kUpdate, 9.0,
                                  &status[5], &frames[5]));
  sim.ScheduleCallbackAt(1.0, [&lm] { lm.Release(1, 5); });
  sim.ScheduleCallbackAt(1.5, [&lm] {
    lm.CrashReset([](TxnId) { return true; });
  });
  sim.Run();
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(status[i], WaitStatus::kSignaled) << i;
    EXPECT_EQ(frames[i], 0u) << i;
  }
  EXPECT_EQ(status[3], WaitStatus::kSignaled);
  EXPECT_EQ(status[4], WaitStatus::kTimeout);
  EXPECT_EQ(status[5], WaitStatus::kCancelled);
  for (int i = 3; i < 6; ++i) EXPECT_EQ(frames[i], 1u) << i;
  EXPECT_TRUE(lm.Holds(2, 5, LockMode::kUpdate));
  EXPECT_EQ(lm.WaiterCount(6), 0u);
  EXPECT_EQ(lm.grants(), 4u);
  EXPECT_EQ(lm.waits(), 3u);
  EXPECT_EQ(lm.timeouts(), 1u);
}

// A transaction names each item once, so it requests each item's lock once
// per site; a second request, whatever its mode, is a protocol bug and dies
// with the named check.
void AcquireTwice(LockMode first, LockMode second) {
  Simulation sim;
  LockManager lm(&sim);
  WaitStatus s1, s2;
  double t1, t2;
  sim.Spawn(AcquireLock(&sim, &lm, 1, 5, first, 1.0, &s1, &t1));
  sim.Spawn(AcquireLock(&sim, &lm, 1, 5, second, 1.0, &s2, &t2));
  sim.Run();
}

TEST(LockManagerDeathTest, SecondRequestForAHeldLockDies) {
  EXPECT_DEATH(AcquireTwice(LockMode::kShared, LockMode::kShared),
               "requests a lock it already holds here");
}

TEST(LockManagerDeathTest, UpgradeRequestDies) {
  EXPECT_DEATH(AcquireTwice(LockMode::kShared, LockMode::kUpdate),
               "requests a lock it already holds here");
}

// ---------------------------------------------------------------------------
// ItemStore / Thomas Write Rule
// ---------------------------------------------------------------------------

TEST(ItemStoreTest, NewerWriteInstalls) {
  ReplicaVersions versions(Placement{1, 10, 1});
  ItemStore store(&versions, 0);
  Timestamp ts{1.0, 42};
  auto r = store.ApplyWrite(3, ts);
  EXPECT_TRUE(r.applied);
  EXPECT_EQ(store.VersionOf(3), ts);
  EXPECT_EQ(r.other_writer, kNoTxn);  // replaced the initial version
}

TEST(ItemStoreTest, ThomasWriteRuleIgnoresStaleWrite) {
  ReplicaVersions versions(Placement{1, 10, 1});
  ItemStore store(&versions, 0);
  store.ApplyWrite(3, Timestamp{2.0, 50});
  auto r = store.ApplyWrite(3, Timestamp{1.0, 42});  // older timestamp
  EXPECT_FALSE(r.applied);
  EXPECT_EQ(r.other_writer, 50u);  // the ignored writer precedes txn 50
  EXPECT_EQ(store.VersionOf(3).txn, 50u);
  EXPECT_EQ(store.writes_ignored(), 1u);
}

TEST(ItemStoreTest, TieBreakByTxnId) {
  ReplicaVersions versions(Placement{1, 10, 1});
  ItemStore store(&versions, 0);
  store.ApplyWrite(3, Timestamp{1.0, 50});
  // Same time, higher txn id: counts as newer.
  auto r = store.ApplyWrite(3, Timestamp{1.0, 51});
  EXPECT_TRUE(r.applied);
  // Same time, lower txn id: ignored.
  auto r2 = store.ApplyWrite(3, Timestamp{1.0, 49});
  EXPECT_FALSE(r2.applied);
}

TEST(ItemStoreTest, WriteCollectsPriorReaders) {
  ReplicaVersions versions(Placement{1, 10, 1});
  ItemStore store(&versions, 0);
  store.Read(3, 100);
  store.Read(3, 101);
  store.Read(3, 100);  // duplicate registration collapses
  auto r = store.ApplyWrite(3, Timestamp{1.0, 42});
  EXPECT_TRUE(r.applied);
  ASSERT_EQ(r.prior_readers.size(), 2u);
  EXPECT_EQ(r.prior_readers[0], 100u);  // registration order
  EXPECT_EQ(r.prior_readers[1], 101u);
  EXPECT_EQ(store.ReadersOf(3).size(), 0u);  // cleared by the write
}

TEST(ItemStoreTest, ReadReturnsVersionAndRegisters) {
  ReplicaVersions versions(Placement{1, 10, 1});
  ItemStore store(&versions, 0);
  store.ApplyWrite(3, Timestamp{1.0, 42});
  Timestamp v = store.Read(3, 100);
  EXPECT_EQ(v.txn, 42u);
  EXPECT_EQ(store.ReadersOf(3).size(), 1u);
  store.RemoveReader(100, {3});
  EXPECT_EQ(store.ReadersOf(3).size(), 0u);
}

// A writer's time is stamped once, so every write by one writer carries
// it; the table the stores of a System share rejects a second time.
TEST(ItemStoreDeathTest, WriterAppliedWithTwoTimesDies) {
  ReplicaVersions versions(Placement{2, 5, 2});
  ItemStore store(&versions, 0);
  ItemStore other(&versions, 1);
  store.ApplyWrite(3, Timestamp{1.0, 42});
  other.ApplyWrite(4, Timestamp{1.0, 42});
  EXPECT_EQ(other.VersionOf(4), (Timestamp{1.0, 42}));
  EXPECT_DEATH(other.ApplyWrite(5, Timestamp{2.0, 42}),
               "writer applied with two different commit times");
}

// The store before its reader table and before the shared version table:
// one timestamp and one reader vector per item at each site. The
// differential tests below hold ItemStore to it.
class VectorPerItemStore {
 public:
  explicit VectorPerItemStore(uint32_t num_items) : replicas_(num_items) {}

  struct WriteResult {
    bool applied = false;
    std::vector<TxnId> prior_readers;
    TxnId other_writer = kNoTxn;
  };

  WriteResult ApplyWrite(ItemId item, Timestamp ts) {
    Replica& r = replicas_[item];
    WriteResult result;
    result.other_writer = r.ts.txn;
    if (ts > r.ts) {
      result.applied = true;
      result.prior_readers = std::move(r.readers);
      r.readers.clear();
      r.ts = ts;
    } else {
      ++writes_ignored_;
    }
    return result;
  }

  Timestamp Read(ItemId item, TxnId reader) {
    Replica& r = replicas_[item];
    if (std::find(r.readers.begin(), r.readers.end(), reader) ==
        r.readers.end()) {
      r.readers.push_back(reader);
    }
    return r.ts;
  }

  void RemoveReader(TxnId reader, const std::vector<ItemId>& items) {
    for (ItemId item : items) {
      auto& readers = replicas_[item].readers;
      readers.erase(std::remove(readers.begin(), readers.end(), reader),
                    readers.end());
    }
  }

  Timestamp VersionOf(ItemId item) const { return replicas_[item].ts; }
  const std::vector<TxnId>& ReadersOf(ItemId item) const {
    return replicas_[item].readers;
  }
  uint64_t writes_ignored() const { return writes_ignored_; }

 private:
  struct Replica {
    Timestamp ts;
    std::vector<TxnId> readers;
  };
  std::vector<Replica> replicas_;
  uint64_t writes_ignored_ = 0;
};

std::vector<TxnId> Copy(std::span<const TxnId> readers) {
  return {readers.begin(), readers.end()};
}

}  // namespace

// Reads where the reader table placed each item, so the differential test
// can show that its sequences grow the table and shift entries back across
// its end.
struct ItemStoreTestPeer {
  static size_t Slots(const ItemStore& store) {
    return store.readers_.slot_count();
  }
  /// Slot of `item`'s reader list, or -1 when it has no live readers.
  static long SlotOf(const ItemStore& store, ItemId item) {
    const size_t pos = store.readers_.Find(item);
    return pos == store.readers_.kNotFound ? -1 : static_cast<long>(pos);
  }
};

namespace {

// Seeded random sequences of reads, newer and stale writes and reader
// removals over a pool of 64 items and 40 reader ids, run through ItemStore
// and the vector-per-item model side by side. After every operation the
// results and every pooled item's version and readers must agree element by
// element. Phases of 1,000 operations alternate between filling and
// draining the reader table. Each draining phase starts by retiring 8
// pooled items (every reader removed) for fresh ids from a larger space, so
// the occupied home slots keep moving and probe runs form across the end of
// the table.
TEST(ItemStoreTest, ReaderTableMatchesVectorPerItemModel) {
  constexpr uint32_t kUniverse = 1 << 16;
  constexpr int kItems = 64;
  constexpr TxnId kReaders = 40;
  constexpr int kOps = 20000;
  for (uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    std::mt19937_64 rng(seed);
    auto below = [&rng](uint64_t n) { return rng() % n; };
    std::vector<ItemId> items;
    auto fresh_item = [&] {
      ItemId id;
      do {
        id = static_cast<ItemId>(below(kUniverse));
      } while (std::find(items.begin(), items.end(), id) != items.end());
      return id;
    };
    while (items.size() < kItems) items.push_back(fresh_item());
    ReplicaVersions versions(Placement{1, kUniverse, 1});
    ItemStore store(&versions, 0);
    VectorPerItemStore model(kUniverse);
    std::vector<TxnId> writes_of_draw(1000);
    double clock = 0;
    size_t max_slots = 0;
    int wrapped_shifts = 0;
    std::vector<long> before(kItems);
    std::vector<ItemId> list;
    for (int op = 0; op < kOps; ++op) {
      SCOPED_TRACE(testing::Message() << "op " << op);
      const bool filling = (op / 1000) % 2 == 0;
      if (!filling && op % 1000 == 0) {
        for (int k = 0; k < 8; ++k) {
          ItemId& retired = items[below(kItems)];
          for (TxnId r = 1; r <= kReaders; ++r) {
            store.RemoveReader(r, {retired});
            model.RemoveReader(r, {retired});
          }
          ASSERT_TRUE(store.ReadersOf(retired).empty());
          retired = fresh_item();
        }
      }
      const size_t slots_before = ItemStoreTestPeer::Slots(store);
      for (int i = 0; i < kItems; ++i) {
        before[i] = ItemStoreTestPeer::SlotOf(store, items[i]);
      }
      const ItemId item = items[below(kItems)];
      const TxnId reader = 1 + below(kReaders);
      const uint64_t kind = below(100);
      if (kind < (filling ? 70u : 20u)) {
        ASSERT_EQ(store.Read(item, reader), model.Read(item, reader));
      } else if (kind < (filling ? 85u : 60u)) {
        // Newer, stale or same-instant writes, by writers outside the
        // reader ids. A writer's time is stamped once, so every write has
        // a writer of its own, ordered by the draw: the k-th write to draw
        // d is writer 100 + 32 d + k.
        const uint64_t draw = below(1000);
        ASSERT_LT(writes_of_draw[draw], 32u);
        Timestamp ts{clock, 100 + 32 * draw + writes_of_draw[draw]++};
        const uint64_t age = below(4);
        if (age == 0) ts.time = (clock += 1);
        if (age == 1) ts.time = model.VersionOf(item).time;
        if (age == 2) ts.time = std::max(0.0, clock - 1 - below(5));
        auto got = store.ApplyWrite(item, ts);
        auto want = model.ApplyWrite(item, ts);
        ASSERT_EQ(got.applied, want.applied);
        ASSERT_EQ(got.other_writer, want.other_writer);
        ASSERT_EQ(Copy(got.prior_readers), want.prior_readers);
      } else {
        list.clear();
        for (uint64_t k = 1 + below(8); k > 0; --k) {
          list.push_back(items[below(kItems)]);
        }
        store.RemoveReader(reader, list);
        model.RemoveReader(reader, list);
      }
      for (ItemId i : items) {
        ASSERT_EQ(store.VersionOf(i), model.VersionOf(i)) << "item " << i;
        ASSERT_EQ(Copy(store.ReadersOf(i)), model.ReadersOf(i))
            << "item " << i;
      }
      const size_t slots = ItemStoreTestPeer::Slots(store);
      max_slots = std::max(max_slots, slots);
      if (slots != slots_before) continue;
      for (int i = 0; i < kItems; ++i) {
        // Backward shifts only lower a slot index, except across the end.
        const long after = ItemStoreTestPeer::SlotOf(store, items[i]);
        if (before[i] >= 0 && after > before[i]) ++wrapped_shifts;
      }
    }
    EXPECT_GE(max_slots, 128u);
    EXPECT_GT(wrapped_shifts, 0);
  }
}

// N stores sharing one ReplicaVersions against N dense per-site arrays (the
// layout before the table: VectorPerItemStore per site). Writers with
// random commit times, some older than writers already propagating, each
// write 1-3 items and reach their items' replica sites one site at a time
// in a random interleaving; a delivery applies the writer's items that
// site holds, in write-set order, as System::ApplyWrites does. Repeated
// deliveries of one writer at one site, stale (ignored) writes, reads and
// reader removals are mixed in. After every apply the WriteResult and the
// item's readers at that site must agree, and so must every site's
// VersionOf of every item and writes_ignored, and the table's in-flight
// count must equal the writers applied at some but not all replica sites
// of an item that are newer than the newest writer applied at all of them.
// Once every writer has reached every site, nothing may be in flight.
TEST(ReplicaVersionsTest, SharedTableMatchesDenseArraysPerSite) {
  struct Shape {
    uint32_t sites;
    uint32_t items_per_site;
    uint32_t replicas;
  };
  // Full replication, two bitset words (70 sites), k of N with and without
  // wrapping past the last site, and one replica per item.
  const Shape shapes[] = {{5, 4, 5}, {70, 1, 70}, {6, 3, 3},
                          {70, 1, 4}, {4, 5, 1}};
  constexpr size_t kWriters = 150;
  constexpr TxnId kReaders = 40;  // reader ids 1..40; writers from 1,000
  constexpr size_t kMaxLive = 10;
  for (const Shape& shape : shapes) {
    for (uint64_t seed : {1, 2, 3}) {
      SCOPED_TRACE(testing::Message()
                   << shape.sites << " sites, " << shape.items_per_site
                   << " items per site, " << shape.replicas
                   << " replicas, seed " << seed);
      std::mt19937_64 rng(seed);
      auto below = [&rng](uint64_t n) { return rng() % n; };
      const Placement placement{shape.sites, shape.items_per_site,
                                shape.replicas};
      const uint32_t num_items = placement.num_items();
      ReplicaVersions versions(placement);
      std::vector<ItemStore> stores;
      std::vector<VectorPerItemStore> arrays;
      for (uint32_t site = 0; site < shape.sites; ++site) {
        stores.emplace_back(&versions, static_cast<SiteId>(site));
        arrays.emplace_back(num_items);
      }

      struct Writer {
        Timestamp ts;
        std::vector<ItemId> items;
        std::vector<SiteId> pending;    // sites not yet reached
        std::vector<SiteId> delivered;  // sites reached
      };
      std::vector<Writer> writers;
      std::vector<size_t> live;  // writers with pending sites
      TxnId next_writer = 1000;
      double clock = 10;

      // What the dense arrays say about the table's in-flight writers:
      // replica sites that applied each (writer, item) and, per item, the
      // newest writer every replica site applied.
      std::map<std::pair<TxnId, ItemId>, uint32_t> applied_at;
      std::vector<Timestamp> settled(num_items);
      auto stamp = [&](TxnId writer) { return writers[writer - 1000].ts; };
      auto expected_in_flight = [&] {
        size_t n = 0;
        for (const auto& [key, count] : applied_at) {
          if (count < shape.replicas && stamp(key.first) > settled[key.second]) {
            ++n;
          }
        }
        return n;
      };

      auto check_sites = [&] {
        for (uint32_t site = 0; site < shape.sites; ++site) {
          ASSERT_EQ(stores[site].writes_ignored(),
                    arrays[site].writes_ignored())
              << "site " << site;
          for (ItemId item = 0; item < num_items; ++item) {
            ASSERT_EQ(stores[site].VersionOf(item),
                      arrays[site].VersionOf(item))
                << "item " << item << " at site " << site;
          }
        }
        ASSERT_EQ(versions.writers_in_flight(), expected_in_flight());
      };

      auto deliver = [&](const Writer& w, SiteId site) {
        for (ItemId item : w.items) {
          if (!placement.Holds(item, site)) continue;
          SCOPED_TRACE(testing::Message() << "writer " << w.ts.txn
                                          << " item " << item << " at site "
                                          << site);
          auto got = stores[site].ApplyWrite(item, w.ts);
          auto want = arrays[site].ApplyWrite(item, w.ts);
          ASSERT_EQ(got.applied, want.applied);
          ASSERT_EQ(got.other_writer, want.other_writer);
          ASSERT_EQ(Copy(got.prior_readers), want.prior_readers);
          ASSERT_EQ(Copy(stores[site].ReadersOf(item)),
                    arrays[site].ReadersOf(item));
          if (want.applied) {
            const uint32_t count = ++applied_at[{w.ts.txn, item}];
            if (count == shape.replicas && w.ts > settled[item]) {
              settled[item] = w.ts;
            }
          }
          // Drop what can no longer be in flight.
          std::erase_if(applied_at, [&](const auto& entry) {
            return entry.second == shape.replicas ||
                   stamp(entry.first.first) <= settled[entry.first.second];
          });
          check_sites();
          if (HasFatalFailure()) return;
        }
      };

      // A 70-site writer takes 70 deliveries; fewer of them cover as much.
      const size_t wanted = shape.sites > 10 ? kWriters / 3 : kWriters;
      size_t max_in_flight = 0;
      for (int step = 0; writers.size() < wanted && !HasFatalFailure();
           ++step) {
        SCOPED_TRACE(testing::Message() << "step " << step);
        const uint64_t kind = below(100);
        if (kind < 20 && live.size() < kMaxLive) {
          // A new writer, stamped up to 3 s before or after the clock on a
          // half-second grid, so some are older than writers in flight and
          // some share a time.
          Writer w;
          clock += 1;
          w.ts = Timestamp{clock + 0.5 * (static_cast<double>(below(13)) - 6),
                           next_writer++};
          for (uint64_t n = 1 + below(3); n > 0; --n) {
            const ItemId item = static_cast<ItemId>(below(num_items));
            if (std::find(w.items.begin(), w.items.end(), item) ==
                w.items.end()) {
              w.items.push_back(item);
            }
          }
          for (uint32_t site = 0; site < shape.sites; ++site) {
            for (ItemId item : w.items) {
              if (placement.Holds(item, static_cast<SiteId>(site))) {
                w.pending.push_back(static_cast<SiteId>(site));
                break;
              }
            }
          }
          live.push_back(writers.size());
          writers.push_back(std::move(w));
        } else if (kind < 65 && !live.empty()) {
          // The next site of a writer in flight, in a random order.
          const size_t k = below(live.size());
          Writer& w = writers[live[k]];
          const size_t p = below(w.pending.size());
          const SiteId site = w.pending[p];
          w.pending.erase(w.pending.begin() + p);
          w.delivered.push_back(site);
          if (w.pending.empty()) live.erase(live.begin() + k);
          deliver(w, site);
          max_in_flight = std::max(max_in_flight, versions.writers_in_flight());
        } else if (kind < 75 && !writers.empty()) {
          // A repeated delivery at a site the writer already reached.
          const Writer& w = writers[below(writers.size())];
          if (!w.delivered.empty()) {
            deliver(w, w.delivered[below(w.delivered.size())]);
          }
        } else if (kind < 93) {
          const SiteId site = static_cast<SiteId>(below(shape.sites));
          const ItemId item = static_cast<ItemId>(below(num_items));
          if (!placement.Holds(item, site)) continue;
          const TxnId reader = 1 + below(kReaders);
          ASSERT_EQ(stores[site].Read(item, reader),
                    arrays[site].Read(item, reader));
        } else {
          const SiteId site = static_cast<SiteId>(below(shape.sites));
          const TxnId reader = 1 + below(kReaders);
          std::vector<ItemId> items;
          for (uint64_t n = 1 + below(4); n > 0; --n) {
            items.push_back(static_cast<ItemId>(below(num_items)));
          }
          stores[site].RemoveReader(reader, items);
          arrays[site].RemoveReader(reader, items);
        }
      }
      // Drain: every writer reaches every site it has left.
      while (!live.empty() && !HasFatalFailure()) {
        const size_t k = below(live.size());
        Writer& w = writers[live[k]];
        const SiteId site = w.pending.back();
        w.pending.pop_back();
        w.delivered.push_back(site);
        if (w.pending.empty()) live.erase(live.begin() + k);
        deliver(w, site);
      }
      ASSERT_FALSE(HasFatalFailure());
      uint64_t ignored = 0;
      for (const ItemStore& store : stores) ignored += store.writes_ignored();
      EXPECT_GT(ignored, 0u);
      // Several writers of one item, or of several, propagate at once,
      // except with one replica, where a write settles as it applies.
      if (shape.replicas > 1) {
        EXPECT_GE(max_in_flight, 4u);
      } else {
        EXPECT_EQ(max_in_flight, 0u);
      }
      EXPECT_EQ(versions.writers_in_flight(), 0u);
    }
  }
}

// The table's own contract, below the stores: a repeated install at one
// site counts that site once, so a writer settles only when every replica
// site applied it. Through ItemStore a repeat never reaches Install (TWR
// ignores a write whose timestamp the site already holds), so this is the
// test that pins it.
TEST(ReplicaVersionsTest, RepeatedInstallCountsOnce) {
  ReplicaVersions versions(Placement{3, 2, 3});
  versions.NoteWriter(Timestamp{1.0, 7});
  versions.Install(4, 0, 7);
  versions.Install(4, 0, 7);
  versions.Install(4, 1, 7);
  EXPECT_EQ(versions.writers_in_flight(), 1u);
  EXPECT_EQ(versions.WriterAt(4, 0), 7u);
  EXPECT_EQ(versions.WriterAt(4, 2), 0u);  // not applied there yet
  versions.Install(4, 2, 7);
  EXPECT_EQ(versions.writers_in_flight(), 0u);
  EXPECT_EQ(versions.WriterAt(4, 2), 7u);
}

// A site without a replica of an item never applies it: its version stays
// the initial one, and a write there is a bug in the caller.
TEST(ReplicaVersionsDeathTest, InstallAtSiteWithoutReplicaDies) {
  ReplicaVersions versions(Placement{4, 1, 2});  // item 0 at sites 0 and 1
  versions.NoteWriter(Timestamp{1.0, 7});
  versions.Install(0, 0, 7);
  versions.Install(0, 1, 7);
  EXPECT_EQ(versions.WriterAt(0, 1), 7u);
  EXPECT_EQ(versions.WriterAt(0, 2), 0u);
  EXPECT_DEATH(versions.Install(0, 2, 7),
               "write applied at a site without a replica");
}

}  // namespace
}  // namespace lazyrep::db
