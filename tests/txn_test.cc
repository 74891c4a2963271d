// Unit tests for the transaction model, the completion tracker and the
// workload generator (src/txn).

#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/random.h"
#include "txn/completion_tracker.h"
#include "txn/transaction.h"
#include "txn/workload.h"

namespace lazyrep::txn {
namespace {

constexpr int kSites = 10;

WorkloadParams PaperParams() {
  WorkloadParams p;
  p.items_per_site = 20;
  return p;
}

/// The placement of `num_sites` sites of p.items_per_site items each, every
/// item held at `replicas` sites.
db::Placement PlacementOf(const WorkloadParams& p, int num_sites,
                          int replicas) {
  return {static_cast<uint32_t>(num_sites),
          static_cast<uint32_t>(p.items_per_site),
          static_cast<uint32_t>(replicas)};
}

/// A generator over `num_sites` sites with every item at every site.
WorkloadGenerator FullyReplicated(const WorkloadParams& p,
                                  int num_sites = kSites) {
  return WorkloadGenerator(p, PlacementOf(p, num_sites, num_sites));
}

/// The items a view yields, in its order.
template <typename View>
std::vector<db::ItemId> ItemsIn(View&& view) {
  std::vector<db::ItemId> items;
  for (db::ItemId item : view) items.push_back(item);
  return items;
}

TEST(TransactionTest, AccessViewsFollowOpsWithNoRebuild) {
  Transaction t;
  t.ops = {{db::OpType::kRead, 1},
           {db::OpType::kWrite, 2},
           {db::OpType::kRead, 3},
           {db::OpType::kWrite, 4}};
  EXPECT_EQ(ItemsIn(t.Reads()), (std::vector<db::ItemId>{1, 3}));
  EXPECT_EQ(ItemsIn(t.Writes()), (std::vector<db::ItemId>{2, 4}));
  EXPECT_EQ(t.num_writes(), 2u);
  EXPECT_EQ(t.num_ops(), 4);
  // An edit to ops shows in the views at once, still in op order.
  t.ops[0].type = db::OpType::kWrite;
  t.ops.push_back({db::OpType::kRead, 5});
  EXPECT_EQ(ItemsIn(t.Reads()), (std::vector<db::ItemId>{3, 5}));
  EXPECT_EQ(ItemsIn(t.Writes()), (std::vector<db::ItemId>{1, 2, 4}));
  EXPECT_EQ(t.num_writes(), 3u);
  EXPECT_EQ(t.num_ops(), 5);
}

TEST(TransactionTest, StateNames) {
  EXPECT_STREQ(TxnStateName(TxnState::kActive), "active");
  EXPECT_STREQ(TxnStateName(TxnState::kCommitted), "committed");
  EXPECT_STREQ(TxnStateName(TxnState::kAborted), "aborted");
  EXPECT_STREQ(TxnStateName(TxnState::kCompleted), "completed");
}

TEST(WorkloadTest, OpCountWithinBounds) {
  WorkloadGenerator gen = FullyReplicated(PaperParams());
  sim::RandomStream rng(1);
  for (int i = 0; i < 2000; ++i) {
    Transaction t = gen.Generate(i + 1, 3, &rng);
    EXPECT_GE(t.num_ops(), 5);
    EXPECT_LE(t.num_ops(), 15);
  }
}

TEST(WorkloadTest, ReadOnlyFractionApproximatelyNinety) {
  WorkloadGenerator gen = FullyReplicated(PaperParams());
  sim::RandomStream rng(2);
  int updates = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    Transaction t = gen.Generate(i + 1, 0, &rng);
    if (t.is_update) ++updates;
  }
  // ~10% draw the update class; a few of those draw zero writes and are
  // reclassified read-only, so the update share lands slightly under 0.10.
  EXPECT_NEAR(updates / static_cast<double>(n), 0.10, 0.015);
}

TEST(WorkloadTest, WriteFractionWithinUpdates) {
  WorkloadGenerator gen = FullyReplicated(PaperParams());
  sim::RandomStream rng(3);
  int64_t writes = 0;
  int64_t ops = 0;
  for (int i = 0; i < 20000; ++i) {
    Transaction t = gen.Generate(i + 1, 0, &rng);
    if (!t.is_update) continue;
    ops += t.num_ops();
    writes += static_cast<int64_t>(t.num_writes());
  }
  EXPECT_NEAR(writes / static_cast<double>(ops), 0.30, 0.02);
}

TEST(WorkloadTest, ItemsDistinctWithinTransaction) {
  WorkloadGenerator gen = FullyReplicated(PaperParams());
  sim::RandomStream rng(4);
  for (int i = 0; i < 2000; ++i) {
    Transaction t = gen.Generate(i + 1, 2, &rng);
    std::unordered_set<db::ItemId> seen;
    for (const auto& op : t.ops) {
      EXPECT_TRUE(seen.insert(op.item).second)
          << "duplicate item " << op.item;
    }
  }
}

TEST(WorkloadTest, WritesRespectOwnership) {
  WorkloadParams p = PaperParams();
  WorkloadGenerator gen = FullyReplicated(p);
  sim::RandomStream rng(5);
  for (int i = 0; i < 3000; ++i) {
    db::SiteId origin = static_cast<db::SiteId>(i % kSites);
    Transaction t = gen.Generate(i + 1, origin, &rng);
    for (db::ItemId w : t.Writes()) {
      EXPECT_EQ(w / p.items_per_site, origin)
          << "write outside the origin's primary partition";
    }
  }
}

TEST(WorkloadTest, RelaxedOwnershipWritesAnywhere) {
  WorkloadParams p = PaperParams();
  p.relaxed_ownership = true;
  WorkloadGenerator gen = FullyReplicated(p);
  sim::RandomStream rng(6);
  bool saw_foreign_write = false;
  for (int i = 0; i < 5000 && !saw_foreign_write; ++i) {
    Transaction t = gen.Generate(i + 1, 0, &rng);
    for (db::ItemId w : t.Writes()) {
      if (w / p.items_per_site != 0) saw_foreign_write = true;
    }
  }
  EXPECT_TRUE(saw_foreign_write);
}

TEST(WorkloadTest, ReadsCoverWholeDatabase) {
  WorkloadParams p = PaperParams();
  WorkloadGenerator gen = FullyReplicated(p, /*num_sites=*/5);
  sim::RandomStream rng(7);
  std::unordered_set<db::ItemId> read_items;
  for (int i = 0; i < 5000; ++i) {
    Transaction t = gen.Generate(i + 1, 0, &rng);
    for (db::ItemId r : t.Reads()) read_items.insert(r);
  }
  // With 100 items and 5k transactions, every item should be read.
  EXPECT_EQ(read_items.size(), static_cast<size_t>(p.items_per_site * 5));
}

TEST(WorkloadTest, PartialReplicationReadsStayLocal) {
  WorkloadParams p = PaperParams();
  constexpr int kReplicas = 3;
  WorkloadGenerator gen(p, PlacementOf(p, kSites, kReplicas));
  sim::RandomStream rng(8);
  for (int i = 0; i < 3000; ++i) {
    db::SiteId origin = static_cast<db::SiteId>(i % kSites);
    Transaction t = gen.Generate(i + 1, origin, &rng);
    for (db::ItemId r : t.Reads()) {
      int primary = r / p.items_per_site;
      int offset = (origin - primary + kSites) % kSites;
      EXPECT_LT(offset, kReplicas)
          << "read of item " << r << " not replicated at site " << origin;
    }
  }
}

TEST(WorkloadTest, PartialReplicationRelaxedWritesStayLocal) {
  // A relaxed write may leave the origin's own block, but only for a block
  // the origin holds: the origin applies every write it commits.
  WorkloadParams p = PaperParams();
  p.relaxed_ownership = true;
  p.read_only_fraction = 0.0;
  constexpr int kReplicas = 2;
  const db::Placement placement = PlacementOf(p, kSites, kReplicas);
  WorkloadGenerator gen(p, placement);
  sim::RandomStream rng(13);
  bool saw_foreign_write = false;
  for (int i = 0; i < 3000; ++i) {
    db::SiteId origin = static_cast<db::SiteId>(i % kSites);
    Transaction t = gen.Generate(i + 1, origin, &rng);
    for (db::ItemId w : t.Writes()) {
      EXPECT_TRUE(placement.Holds(w, origin))
          << "write of item " << w << " not replicated at site " << origin;
      if (placement.Primary(w) != origin) saw_foreign_write = true;
    }
  }
  EXPECT_TRUE(saw_foreign_write);
}

TEST(WorkloadTest, NoWritesMeansReadOnlyClassification) {
  WorkloadGenerator gen = FullyReplicated(PaperParams());
  sim::RandomStream rng(9);
  for (int i = 0; i < 5000; ++i) {
    Transaction t = gen.Generate(i + 1, 1, &rng);
    EXPECT_EQ(t.is_update, t.num_writes() != 0);
  }
}

TEST(WorkloadTest, DeterministicForSameSeed) {
  WorkloadGenerator gen = FullyReplicated(PaperParams());
  sim::RandomStream a(11);
  sim::RandomStream b(11);
  for (int i = 0; i < 100; ++i) {
    Transaction x = gen.Generate(i + 1, 2, &a);
    Transaction y = gen.Generate(i + 1, 2, &b);
    ASSERT_EQ(x.num_ops(), y.num_ops());
    for (int k = 0; k < x.num_ops(); ++k) {
      EXPECT_EQ(x.ops[k].item, y.ops[k].item);
      EXPECT_EQ(x.ops[k].type, y.ops[k].type);
    }
  }
}

TEST(WorkloadTest, WritePoolExhaustionFallsBackToReads) {
  // More write draws than the origin owns distinct items: the generator
  // must not loop forever and must keep items distinct.
  WorkloadParams p;
  p.items_per_site = 2;  // only two ownable items per site
  p.read_only_fraction = 0.0;
  p.write_op_fraction = 1.0;
  p.min_ops = 6;
  p.max_ops = 6;
  WorkloadGenerator gen = FullyReplicated(p, /*num_sites=*/4);
  sim::RandomStream rng(12);
  for (int i = 0; i < 200; ++i) {
    Transaction t = gen.Generate(i + 1, 1, &rng);
    EXPECT_LE(t.num_writes(), 2u);
    EXPECT_EQ(t.num_ops(), 6);
    std::unordered_set<db::ItemId> seen;
    for (const auto& op : t.ops) EXPECT_TRUE(seen.insert(op.item).second);
  }
}

// ---------------------------------------------------------------------------
// CompletionTracker
// ---------------------------------------------------------------------------

/// Registers transaction `id` (ids run densely from 1) from site `origin`.
Transaction* Register(CompletionTracker* tracker, db::TxnId id,
                      db::SiteId origin) {
  Transaction t;
  t.id = id;
  t.origin = origin;
  return tracker->Register(std::move(t));
}

/// Commits `t` at its origin, owing `remaining` site-level commits.
void Commit(Transaction* t, int remaining) {
  t->state = TxnState::kCommitted;
  t->remaining_commits = remaining;
}

/// Records every completion's id, in order.
void RecordCompletions(CompletionTracker* tracker,
                       std::vector<db::TxnId>* completed) {
  tracker->set_on_completed(
      [completed](Transaction* t) { completed->push_back(t->id); });
}

TEST(CompletionTrackerTest, CompletesWhenCommitsAndNoPreds) {
  CompletionTracker tracker;
  std::vector<db::TxnId> completed;
  RecordCompletions(&tracker, &completed);
  Transaction* t1 = Register(&tracker, 1, 0);
  Commit(t1, 3);
  tracker.OnSubtxnCommitted(1);
  tracker.OnSubtxnCommitted(1);
  EXPECT_TRUE(completed.empty());
  tracker.OnSubtxnCommitted(1);
  EXPECT_EQ(completed, (std::vector<db::TxnId>{1}));
  EXPECT_EQ(t1->state, TxnState::kCompleted);
}

TEST(CompletionTrackerTest, PredecessorDelaysCompletion) {
  CompletionTracker tracker;
  std::vector<db::TxnId> completed;
  RecordCompletions(&tracker, &completed);
  Transaction* t1 = Register(&tracker, 1, 0);
  Transaction* t2 = Register(&tracker, 2, 1);
  tracker.AddPredecessor(2, 1);
  Commit(t2, 1);
  tracker.OnSubtxnCommitted(2);
  EXPECT_TRUE(completed.empty());  // waiting on txn 1
  Commit(t1, 1);
  tracker.OnSubtxnCommitted(1);
  // Central cascade: 1 completes, then 2.
  EXPECT_EQ(completed, (std::vector<db::TxnId>{1, 2}));
}

TEST(CompletionTrackerTest, CascadeThroughChain) {
  CompletionTracker tracker;
  std::vector<db::TxnId> completed;
  RecordCompletions(&tracker, &completed);
  for (db::TxnId t = 1; t <= 4; ++t) Commit(Register(&tracker, t, 0), 1);
  tracker.AddPredecessor(2, 1);
  tracker.AddPredecessor(3, 2);
  tracker.AddPredecessor(4, 3);
  tracker.OnSubtxnCommitted(4);
  tracker.OnSubtxnCommitted(3);
  tracker.OnSubtxnCommitted(2);
  EXPECT_TRUE(completed.empty());
  tracker.OnSubtxnCommitted(1);
  EXPECT_EQ(completed, (std::vector<db::TxnId>{1, 2, 3, 4}));
}

TEST(CompletionTrackerTest, AbortReleasesDependents) {
  CompletionTracker tracker;
  std::vector<db::TxnId> completed;
  RecordCompletions(&tracker, &completed);
  Transaction* t1 = Register(&tracker, 1, 0);
  Transaction* t2 = Register(&tracker, 2, 0);
  tracker.AddPredecessor(2, 1);
  Commit(t2, 1);
  tracker.OnSubtxnCommitted(2);
  EXPECT_TRUE(completed.empty());
  tracker.OnAborted(1);
  EXPECT_EQ(completed, (std::vector<db::TxnId>{2}));
  EXPECT_EQ(t1->state, TxnState::kAborted);
  EXPECT_NE(t1->state, TxnState::kCompleted);
}

TEST(CompletionTrackerTest, TerminalPredecessorIgnored) {
  CompletionTracker tracker;
  std::vector<db::TxnId> completed;
  RecordCompletions(&tracker, &completed);
  Commit(Register(&tracker, 1, 0), 1);
  tracker.OnSubtxnCommitted(1);  // completed immediately
  Transaction* t2 = Register(&tracker, 2, 0);
  tracker.AddPredecessor(2, 1);    // terminal: no edge
  tracker.AddPredecessor(2, 999);  // unknown: no edge
  Commit(t2, 1);
  tracker.OnSubtxnCommitted(2);
  EXPECT_EQ(completed, (std::vector<db::TxnId>{1, 2}));
}

TEST(CompletionTrackerTest, SelfPredecessorIgnored) {
  CompletionTracker tracker;
  Transaction* t1 = Register(&tracker, 1, 0);
  tracker.AddPredecessor(1, 1);
  Commit(t1, 1);
  tracker.OnSubtxnCommitted(1);
  EXPECT_EQ(t1->state, TxnState::kCompleted);
}

TEST(CompletionTrackerTest, DeferredCascadeWaitsForPerSiteNotice) {
  CompletionTracker tracker;
  tracker.set_deferred_cascade(true);
  std::vector<db::TxnId> completed;
  RecordCompletions(&tracker, &completed);
  Register(&tracker, 1, 0);
  Register(&tracker, 2, 3);  // dependent originates at site 3
  Register(&tracker, 3, 4);  // dependent originates at site 4
  tracker.AddPredecessor(2, 1);
  tracker.AddPredecessor(3, 1);
  for (db::TxnId t : {db::TxnId{1}, db::TxnId{2}, db::TxnId{3}}) {
    Commit(tracker.Find(t), 1);
    tracker.OnSubtxnCommitted(t);
  }
  // Txn 1 completed, but 2 and 3 wait for the notice to reach their sites.
  EXPECT_EQ(completed, (std::vector<db::TxnId>{1}));
  tracker.NotifyCompletionAtSite(1, 3);
  EXPECT_EQ(completed, (std::vector<db::TxnId>{1, 2}));
  tracker.NotifyCompletionAtSite(1, 4);
  EXPECT_EQ(completed, (std::vector<db::TxnId>{1, 2, 3}));
}

TEST(CompletionTrackerTest, LiveCountTracksStates) {
  CompletionTracker tracker;
  Register(&tracker, 1, 0);
  Transaction* t2 = Register(&tracker, 2, 0);
  EXPECT_EQ(tracker.live_count(), 2u);
  tracker.OnAborted(1);
  EXPECT_EQ(tracker.live_count(), 1u);
  Commit(t2, 1);
  tracker.OnSubtxnCommitted(2);
  EXPECT_EQ(tracker.live_count(), 0u);
  EXPECT_TRUE(tracker.IsLive(2) == false && tracker.IsTerminal(2));
}

TEST(CompletionTrackerTest, RecordsAreIndexedByDenseIds) {
  CompletionTracker tracker;
  Transaction* t1 = Register(&tracker, 1, 0);
  for (db::TxnId t = 2; t <= 1000; ++t) Register(&tracker, t, 0);
  EXPECT_EQ(tracker.size(), 1000u);
  EXPECT_EQ(tracker.Find(1), t1);  // records keep their addresses
  EXPECT_EQ(tracker.Find(1000)->id, 1000u);
  EXPECT_EQ(tracker.Find(0), nullptr);
  EXPECT_EQ(tracker.Find(1001), nullptr);
  EXPECT_DEATH(Register(&tracker, 1002, 0), "registered out of id order");
}

TEST(CompletionTrackerTest, CompletesOnlyAfterTheOriginCommit) {
  CompletionTracker tracker;
  Transaction* t1 = Register(&tracker, 1, 0);
  t1->remaining_commits = 1;  // still active at its origin
  EXPECT_DEATH(tracker.OnSubtxnCommitted(1),
               "completed before its origin commit");
}

}  // namespace
}  // namespace lazyrep::txn
