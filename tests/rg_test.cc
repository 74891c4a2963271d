// Unit tests for the replication-graph machinery (src/rg): virtual sites,
// union/split rules, RGtest cycle detection with rollback, and the graph-site
// manager (CPU costing, bounded queue, parking and retesting).

#include <vector>

#include <gtest/gtest.h>

#include "db/types.h"
#include "rg/graph_site.h"
#include "rg/replication_graph.h"
#include "sim/process.h"
#include "sim/random.h"
#include "sim/simulation.h"

namespace lazyrep::rg {
namespace {

using db::ItemId;
using db::Operation;
using db::OpType;
using db::SiteId;
using db::TxnId;

Operation Read(ItemId d) { return Operation{OpType::kRead, d}; }
Operation Write(ItemId d) { return Operation{OpType::kWrite, d}; }

/// The deadlock-timeout interval of Table 1 (SystemConfig::timeout).
constexpr double kTimeout = 0.5;
/// The graph site's queue bound of Table 1 (SystemConfig::graph_queue_bound).
constexpr size_t kQueueBound = 300;

ReplicationGraph::TestOutcome RunRg(ReplicationGraph* g, TxnId t,
                                   std::vector<Operation> ops,
                                   GraphCost* cost = nullptr) {
  GraphCost local;
  return g->RgTest(t, ops, cost ? cost : &local);
}

// ---------------------------------------------------------------------------
// ReplicationGraph
// ---------------------------------------------------------------------------

TEST(ReplicationGraphTest, SingleTransactionIsAlwaysAcyclic) {
  ReplicationGraph g(4);
  g.AddTxn(1, 0, /*is_global=*/true);
  auto out = RunRg(&g, 1, {Write(3), Read(7), Write(9)});
  EXPECT_EQ(out.result, ReplicationGraph::TestResult::kOk);
  EXPECT_TRUE(g.IsAcyclic());
}

TEST(ReplicationGraphTest, RwConflictMergesVirtualSitesAtReaderSite) {
  ReplicationGraph g(4);
  g.AddTxn(1, 0, true);   // writer
  g.AddTxn(2, 2, false);  // local reader at site 2
  ASSERT_EQ(RunRg(&g, 1, {Write(5)}).result, ReplicationGraph::TestResult::kOk);
  ASSERT_EQ(RunRg(&g, 2, {Read(5)}).result, ReplicationGraph::TestResult::kOk);
  EXPECT_TRUE(g.SameVirtualSite(2, 1, 2));
  // At other sites the writer keeps its own virtual site.
  EXPECT_FALSE(g.SameVirtualSite(0, 1, 2));
}

TEST(ReplicationGraphTest, WrConflictMergesWhenWriteArrivesSecond) {
  ReplicationGraph g(4);
  g.AddTxn(1, 2, false);  // reader first
  g.AddTxn(2, 0, true);
  ASSERT_EQ(RunRg(&g, 1, {Read(5)}).result, ReplicationGraph::TestResult::kOk);
  ASSERT_EQ(RunRg(&g, 2, {Write(5)}).result, ReplicationGraph::TestResult::kOk);
  EXPECT_TRUE(g.SameVirtualSite(2, 1, 2));
}

TEST(ReplicationGraphTest, WwConflictMergesAtPrimaryOnly) {
  ReplicationGraph g(4);
  // Both writers of item 5 originate at its primary site 0 (ownership rule).
  g.AddTxn(1, 0, true);
  g.AddTxn(2, 0, true);
  ASSERT_EQ(RunRg(&g, 1, {Write(5)}).result, ReplicationGraph::TestResult::kOk);
  ASSERT_EQ(RunRg(&g, 2, {Write(5)}).result, ReplicationGraph::TestResult::kOk);
  // Union rule, first bullet: at the primary site any conflict (ww included)
  // merges the virtual sites...
  EXPECT_TRUE(g.SameVirtualSite(0, 1, 2));
  // ...but the Thomas Write Rule excuses ww during replica propagation: no
  // merge at the secondary sites, keeping those virtual sites small.
  for (SiteId s = 1; s < 4; ++s) {
    EXPECT_FALSE(g.SameVirtualSite(s, 1, 2)) << "site " << s;
  }
  EXPECT_TRUE(g.IsAcyclic());
}

TEST(ReplicationGraphTest, WwPrimaryMergeSurvivesSplitRule) {
  ReplicationGraph g(4);
  g.AddTxn(1, 0, true);
  g.AddTxn(2, 0, true);
  g.AddTxn(3, 0, true);
  RunRg(&g, 1, {Write(5)});
  RunRg(&g, 2, {Write(5)});
  RunRg(&g, 3, {Write(5)});
  GraphCost cost;
  g.Remove(2, &cost);
  // Txns 1 and 3 still co-write item 5: their primary-site merge persists
  // through the split-rule recompute.
  EXPECT_TRUE(g.SameVirtualSite(0, 1, 3));
}

TEST(ReplicationGraphTest, ReadReadDoesNotMerge) {
  ReplicationGraph g(4);
  g.AddTxn(1, 2, false);
  g.AddTxn(2, 2, false);
  ASSERT_EQ(RunRg(&g, 1, {Read(5)}).result, ReplicationGraph::TestResult::kOk);
  ASSERT_EQ(RunRg(&g, 2, {Read(5)}).result, ReplicationGraph::TestResult::kOk);
  EXPECT_FALSE(g.SameVirtualSite(2, 1, 2));
}

// The canonical cycle: two global writers T1 (writes x), T2 (writes y) and
// two local readers at different sites each reading both x and y. The second
// reader's second read closes a cycle T1 - VS_a - T2 - VS_b - T1.
class CycleFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    g_ = std::make_unique<ReplicationGraph>(4);
    g_->AddTxn(kT1, 0, true);
    g_->AddTxn(kT2, 1, true);
    g_->AddTxn(kL1, 2, false);
    ASSERT_EQ(RunRg(g_.get(), kT1, {Write(kX)}).result,
              ReplicationGraph::TestResult::kOk);
    ASSERT_EQ(RunRg(g_.get(), kT2, {Write(kY)}).result,
              ReplicationGraph::TestResult::kOk);
    ASSERT_EQ(RunRg(g_.get(), kL1, {Read(kX), Read(kY)}).result,
              ReplicationGraph::TestResult::kOk);
    ASSERT_TRUE(g_->SameVirtualSite(2, kT1, kT2));
    ASSERT_TRUE(g_->IsAcyclic());
  }

  static constexpr TxnId kT1 = 1, kT2 = 2, kL1 = 3, kL2 = 4;
  static constexpr ItemId kX = 10, kY = 20;
  std::unique_ptr<ReplicationGraph> g_;
};

TEST_F(CycleFixture, SecondDoubleReaderClosesCycle) {
  g_->AddTxn(kL2, 3, false);
  ASSERT_EQ(RunRg(g_.get(), kL2, {Read(kX)}).result,
            ReplicationGraph::TestResult::kOk);
  auto out = RunRg(g_.get(), kL2, {Read(kY)});
  EXPECT_EQ(out.result, ReplicationGraph::TestResult::kCycle);
  EXPECT_FALSE(out.cycle_has_committed);
  EXPECT_TRUE(g_->IsAcyclic());  // rollback left the graph acyclic
}

TEST_F(CycleFixture, RollbackRestoresState) {
  g_->AddTxn(kL2, 3, false);
  ASSERT_EQ(RunRg(g_.get(), kL2, {Read(kX)}).result,
            ReplicationGraph::TestResult::kOk);
  ASSERT_EQ(RunRg(g_.get(), kL2, {Read(kY)}).result,
            ReplicationGraph::TestResult::kCycle);
  // The failed read left no trace: L2 is merged with T1 (first read) but not
  // with T2.
  EXPECT_TRUE(g_->SameVirtualSite(3, kL2, kT1));
  EXPECT_FALSE(g_->SameVirtualSite(3, kL2, kT2));
  // Retesting the same op deterministically fails again.
  EXPECT_EQ(RunRg(g_.get(), kL2, {Read(kY)}).result,
            ReplicationGraph::TestResult::kCycle);
  // After T1 leaves (abort), the same read passes.
  GraphCost cost;
  g_->Remove(kT1, &cost);
  EXPECT_EQ(RunRg(g_.get(), kL2, {Read(kY)}).result,
            ReplicationGraph::TestResult::kOk);
  EXPECT_TRUE(g_->IsAcyclic());
}

// One RGtest of two reads whose second closes the cycle: the rollback takes
// back the first read as well, its merge and its reader registration.
TEST_F(CycleFixture, FailedMultiOpTestLeavesNoTraceOfItsFirstRead) {
  g_->AddTxn(kL2, 3, false);
  ASSERT_EQ(RunRg(g_.get(), kL2, {Read(kX), Read(kY)}).result,
            ReplicationGraph::TestResult::kCycle);
  EXPECT_FALSE(g_->SameVirtualSite(3, kL2, kT1));
  EXPECT_FALSE(g_->SameVirtualSite(3, kL2, kT2));
  EXPECT_TRUE(g_->IsAcyclic());
  // With L1 gone T1 and T2 no longer share a group, so a new writer of x
  // merges with whatever reads x; L2 must not be among them.
  GraphCost cost;
  g_->Remove(kL1, &cost);
  constexpr TxnId kT3 = 5;
  g_->AddTxn(kT3, 0, true);
  ASSERT_EQ(RunRg(g_.get(), kT3, {Write(kX)}).result,
            ReplicationGraph::TestResult::kOk);
  EXPECT_TRUE(g_->SameVirtualSite(0, kT3, kT1));
  EXPECT_FALSE(g_->SameVirtualSite(3, kT3, kL2));
  EXPECT_TRUE(g_->IsAcyclic());
}

TEST_F(CycleFixture, CommittedTransactionOnCycleIsReported) {
  g_->MarkCommitted(kT2);
  g_->AddTxn(kL2, 3, false);
  ASSERT_EQ(RunRg(g_.get(), kL2, {Read(kX)}).result,
            ReplicationGraph::TestResult::kOk);
  auto out = RunRg(g_.get(), kL2, {Read(kY)});
  EXPECT_EQ(out.result, ReplicationGraph::TestResult::kCycle);
  EXPECT_TRUE(out.cycle_has_committed);
}

// Committed means on the cycle: C shares L2's virtual site at site 3 and
// the search explores it first, but the cycle closes through T1, L1's group
// and T2, none of them committed.
TEST_F(CycleFixture, CommittedTransactionOffTheCycleIsNotReported) {
  constexpr TxnId kC = 5;
  constexpr ItemId kZ = 30;
  g_->AddTxn(kC, 3, true);
  ASSERT_EQ(RunRg(g_.get(), kC, {Write(kZ)}).result,
            ReplicationGraph::TestResult::kOk);
  g_->MarkCommitted(kC);
  g_->AddTxn(kL2, 3, false);
  ASSERT_EQ(RunRg(g_.get(), kL2, {Read(kX), Read(kZ)}).result,
            ReplicationGraph::TestResult::kOk);
  ASSERT_TRUE(g_->SameVirtualSite(3, kL2, kC));
  auto out = RunRg(g_.get(), kL2, {Read(kY)});
  EXPECT_EQ(out.result, ReplicationGraph::TestResult::kCycle);
  EXPECT_FALSE(out.cycle_has_committed);
}

TEST_F(CycleFixture, GlobalSecondReaderAlsoClosesCycle) {
  g_->AddTxn(kL2, 3, true);  // a global transaction this time
  ASSERT_EQ(RunRg(g_.get(), kL2, {Write(30), Read(kX)}).result,
            ReplicationGraph::TestResult::kOk);
  auto out = RunRg(g_.get(), kL2, {Read(kY)});
  EXPECT_EQ(out.result, ReplicationGraph::TestResult::kCycle);
}

TEST_F(CycleFixture, SplitRuleSeparatesGroupsAfterRemoval) {
  // Removing L1 splits T1 and T2 at site 2 (their only link was L1's reads).
  GraphCost cost;
  g_->Remove(kL1, &cost);
  EXPECT_FALSE(g_->SameVirtualSite(2, kT1, kT2));
  EXPECT_GT(cost.add_units, 0u);  // recompute re-added survivor accesses
  // Now a second double reader is fine: only one shared group can form.
  g_->AddTxn(kL2, 3, false);
  EXPECT_EQ(RunRg(g_.get(), kL2, {Read(kX), Read(kY)}).result,
            ReplicationGraph::TestResult::kOk);
  EXPECT_TRUE(g_->SameVirtualSite(3, kT1, kT2));
  EXPECT_TRUE(g_->IsAcyclic());
}

TEST_F(CycleFixture, SplitKeepsSurvivingConflictsMerged) {
  // L1 still reads x and y; removing T1 must keep L1 merged with T2 (their
  // rw conflict on y survives).
  GraphCost cost;
  g_->Remove(kT1, &cost);
  EXPECT_TRUE(g_->SameVirtualSite(2, kL1, kT2));
  EXPECT_FALSE(g_->Contains(kT1));
  EXPECT_EQ(g_->live_txns(), 2u);
}

TEST(ReplicationGraphTest, RemoveUnknownTxnIsNoOp) {
  ReplicationGraph g(4);
  GraphCost cost;
  g.Remove(42, &cost);
  EXPECT_EQ(cost.add_units, 0u);
}

TEST(ReplicationGraphTest, CostAccountingAddUnits) {
  ReplicationGraph g(10);
  g.AddTxn(1, 0, true);
  GraphCost cost;
  auto out = g.RgTest(1, std::vector<Operation>{Read(1), Write(2)}, &cost);
  EXPECT_EQ(out.result, ReplicationGraph::TestResult::kOk);
  // A read adds one (item, VS) entry; a write adds one per physical site
  // (footnote 4: full replication).
  EXPECT_EQ(cost.add_units, 1u + 10u);
  EXPECT_EQ(cost.Instructions(), 11 * 2000.0);
}

TEST(ReplicationGraphTest, CycleCheckChargesEdges) {
  ReplicationGraph g(4);
  g.AddTxn(1, 0, true);
  g.AddTxn(2, 2, true);  // a global requester: its group has graph edges
  RunRg(&g, 1, {Write(5)});
  RunRg(&g, 2, {Write(6)});
  GraphCost cost;
  g.RgTest(2, std::vector<Operation>{Read(5)}, &cost);
  // The union of txn 2's group with txn 1's group ran a connectivity DFS
  // that traversed txn 2's virtual-site edges.
  EXPECT_GT(cost.check_edges, 0u);
}

TEST(ReplicationGraphTest, LocalSingletonCycleCheckIsFree) {
  ReplicationGraph g(4);
  g.AddTxn(1, 0, true);
  g.AddTxn(2, 2, false);  // local reader
  RunRg(&g, 1, {Write(5)});
  GraphCost cost;
  g.RgTest(2, std::vector<Operation>{Read(5)}, &cost);
  // A local transaction's singleton group has no edges in the bipartite
  // graph, so merging it cannot close a cycle and the DFS exits immediately.
  EXPECT_EQ(cost.check_edges, 0u);
  EXPECT_TRUE(g.SameVirtualSite(2, 1, 2));
}

TEST(ReplicationGraphTest, RepeatedOpsDoNotDuplicateState) {
  ReplicationGraph g(4);
  g.AddTxn(1, 0, true);
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(RunRg(&g, 1, {Write(5)}).result,
              ReplicationGraph::TestResult::kOk);
  }
  g.AddTxn(2, 1, false);
  ASSERT_EQ(RunRg(&g, 2, {Read(5)}).result, ReplicationGraph::TestResult::kOk);
  GraphCost cost;
  g.Remove(1, &cost);
  // If writer lists had duplicates, the split-rule recompute would still
  // find txn 1 and crash on the missing entry.
  EXPECT_FALSE(g.Contains(1));
  EXPECT_TRUE(g.IsAcyclic());
}

TEST(ReplicationGraphTest, VirtualSiteMembersReflectsMerges) {
  ReplicationGraph g(4);
  g.AddTxn(1, 0, true);
  g.AddTxn(2, 2, false);
  RunRg(&g, 1, {Write(5)});
  RunRg(&g, 2, {Read(5)});
  auto members = g.VirtualSiteMembers(2, 1);
  EXPECT_EQ(members.size(), 2u);
  EXPECT_EQ(g.MergedGroupsAt(2), 1u);
  EXPECT_EQ(g.MergedGroupsAt(0), 0u);
}

// Randomized invariant check: the graph stays acyclic across arbitrary
// sequences of successful RGtests and removals (failed tests roll back).
TEST(ReplicationGraphTest, RandomizedAcyclicInvariant) {
  sim::RandomStream rng(123);
  for (int round = 0; round < 20; ++round) {
    int num_sites = 2 + static_cast<int>(rng.UniformInt(0, 4));
    int num_items = 12;
    ReplicationGraph g(num_sites);
    std::vector<TxnId> live;
    TxnId next = 1;
    for (int step = 0; step < 300; ++step) {
      double roll = rng.Uniform01();
      if (roll < 0.4 || live.empty()) {
        TxnId t = next++;
        SiteId origin = static_cast<SiteId>(rng.UniformInt(0, num_sites - 1));
        bool global = rng.Chance(0.4);
        g.AddTxn(t, origin, global);
        live.push_back(t);
      } else if (roll < 0.85) {
        TxnId t = live[rng.UniformInt(0, live.size() - 1)];
        bool can_write = false;
        // Writes only for global transactions.
        for (TxnId x : live) (void)x;
        std::vector<Operation> ops;
        int n = 1 + static_cast<int>(rng.UniformInt(0, 2));
        for (int i = 0; i < n; ++i) {
          ItemId d = static_cast<ItemId>(rng.UniformInt(0, num_items - 1));
          // Only globals write; query via a read-modify: we track globals by
          // parity of id for simplicity of the test harness.
          can_write = (t % 3 != 0);
          ops.push_back(Read(d));
        }
        (void)can_write;
        GraphCost cost;
        g.RgTest(t, ops, &cost);
        EXPECT_TRUE(g.IsAcyclic());
      } else {
        size_t idx = rng.UniformInt(0, live.size() - 1);
        TxnId t = live[idx];
        live.erase(live.begin() + idx);
        GraphCost cost;
        g.Remove(t, &cost);
        EXPECT_TRUE(g.IsAcyclic());
      }
    }
  }
}

// ---------------------------------------------------------------------------
// GraphSite
// ---------------------------------------------------------------------------

struct GraphSiteFixture : public ::testing::Test {
  GraphSiteFixture()
      : cpu(&sim, "graph_cpu", 300.0),
        graph(4),
        site(&sim, &cpu, &graph, kQueueBound, kTimeout) {}

  sim::Simulation sim;
  hw::Cpu cpu;
  ReplicationGraph graph;
  GraphSite site;
};

sim::Process RunOpTest(GraphSite* gs, TxnId txn, SiteId origin, bool global,
                       Operation op, Verdict* verdict, double* when,
                       sim::Simulation* sim) {
  *verdict = co_await gs->Test(txn, origin, global, {&op, 1},
                               /*may_wait=*/true);
  *when = sim->Now();
}

sim::Process RunCommitTest(GraphSite* gs, TxnId txn, SiteId origin,
                           bool global, std::vector<Operation> ops,
                           Verdict* verdict, double* when,
                           sim::Simulation* sim) {
  *verdict = co_await gs->Test(txn, origin, global, ops, /*may_wait=*/false);
  *when = sim->Now();
}

sim::Process RunRemove(GraphSite* gs, TxnId txn) {
  co_await gs->HandleRemove(txn);
}

TEST_F(GraphSiteFixture, SimpleOperationAdmitted) {
  Verdict v = Verdict::kAbort;
  double when = -1;
  sim.Spawn(RunOpTest(&site, 1, 0, true, Write(5), &v, &when, &sim));
  sim.Run();
  EXPECT_EQ(v, Verdict::kOk);
  // CPU charged: message (1000) + 4 add units (write at 4 sites) * 2000
  // instructions at 300 MIPS.
  EXPECT_NEAR(when, (1000 + 4 * 2000) / 300e6, 1e-12);
  EXPECT_EQ(site.tests_run(), 1u);
}

TEST_F(GraphSiteFixture, CommittedCycleAbortsImmediately) {
  // Build the cycle fixture through the site API.
  Verdict v;
  double t;
  sim.Spawn(RunOpTest(&site, 1, 0, true, Write(10), &v, &t, &sim));
  sim.Spawn(RunOpTest(&site, 2, 1, true, Write(20), &v, &t, &sim));
  sim.Run();
  sim.Spawn(RunOpTest(&site, 3, 2, false, Read(10), &v, &t, &sim));
  sim.Run();
  sim.Spawn(RunOpTest(&site, 3, 2, false, Read(20), &v, &t, &sim));
  sim.Run();
  ASSERT_EQ(v, Verdict::kOk);
  // Mark both writers committed.
  struct Committed {
    static sim::Process Run(GraphSite* gs, TxnId t) {
      co_await gs->HandleCommitted(t);
    }
  };
  sim.Spawn(Committed::Run(&site, 1));
  sim.Spawn(Committed::Run(&site, 2));
  sim.Run();
  // A global transaction at site 3 closing the cycle gets an instant abort.
  Verdict v4 = Verdict::kOk;
  double t4 = -1;
  sim.Spawn(RunOpTest(&site, 4, 3, true, Write(30), &v4, &t4, &sim));
  sim.Run();
  ASSERT_EQ(v4, Verdict::kOk);
  sim.Spawn(RunOpTest(&site, 4, 3, true, Read(10), &v4, &t4, &sim));
  sim.Run();
  ASSERT_EQ(v4, Verdict::kOk);
  sim.Spawn(RunOpTest(&site, 4, 3, true, Read(20), &v4, &t4, &sim));
  sim.Run();
  EXPECT_EQ(v4, Verdict::kAbort);
  EXPECT_EQ(site.cycle_aborts(), 1u);
  EXPECT_TRUE(site.IsFinished(4));
  EXPECT_FALSE(graph.Contains(4));  // removed inline
  EXPECT_TRUE(graph.IsAcyclic());
}

TEST_F(GraphSiteFixture, UncommittedCycleParksThenRetestSucceeds) {
  Verdict v;
  double t;
  sim.Spawn(RunOpTest(&site, 1, 0, true, Write(10), &v, &t, &sim));
  sim.Spawn(RunOpTest(&site, 2, 1, true, Write(20), &v, &t, &sim));
  sim.Run();
  sim.Spawn(RunOpTest(&site, 3, 2, false, Read(10), &v, &t, &sim));
  sim.Run();
  sim.Spawn(RunOpTest(&site, 3, 2, false, Read(20), &v, &t, &sim));
  sim.Run();
  Verdict v4 = Verdict::kAbort;
  double t4 = -1;
  sim.Spawn(RunOpTest(&site, 4, 3, true, Write(30), &v4, &t4, &sim));
  sim.Run();
  sim.Spawn(RunOpTest(&site, 4, 3, true, Read(10), &v4, &t4, &sim));
  sim.Run();
  Verdict v_blocked = Verdict::kAbort;
  double t_blocked = -1;
  sim.Spawn(RunOpTest(&site, 4, 3, true, Read(20), &v_blocked, &t_blocked,
                      &sim));
  sim.Run(0.2);  // let it park
  EXPECT_EQ(site.waits(), 1u);
  EXPECT_EQ(site.parked_requests(), 1u);
  // Txn 2 aborts; the graph shrinks; the parked request passes on retest.
  sim.ScheduleCallbackAt(0.25, [&] { sim.Spawn(RunRemove(&site, 2)); });
  sim.Run();
  EXPECT_EQ(v_blocked, Verdict::kOk);
  EXPECT_GT(t_blocked, 0.25);
  EXPECT_LT(t_blocked, 0.3);  // well before the 0.5 s timeout
  EXPECT_EQ(site.parked_requests(), 0u);
}

TEST_F(GraphSiteFixture, ParkedRequestTimesOutAndAborts) {
  Verdict v;
  double t;
  sim.Spawn(RunOpTest(&site, 1, 0, true, Write(10), &v, &t, &sim));
  sim.Spawn(RunOpTest(&site, 2, 1, true, Write(20), &v, &t, &sim));
  sim.Run();
  sim.Spawn(RunOpTest(&site, 3, 2, false, Read(10), &v, &t, &sim));
  sim.Run();
  sim.Spawn(RunOpTest(&site, 3, 2, false, Read(20), &v, &t, &sim));
  sim.Run();
  Verdict v4;
  double t4;
  sim.Spawn(RunOpTest(&site, 4, 3, true, Write(30), &v4, &t4, &sim));
  sim.Run();
  sim.Spawn(RunOpTest(&site, 4, 3, true, Read(10), &v4, &t4, &sim));
  sim.Run();
  double park_start = sim.Now();
  Verdict v_blocked = Verdict::kOk;
  double t_blocked = -1;
  sim.Spawn(RunOpTest(&site, 4, 3, true, Read(20), &v_blocked, &t_blocked,
                      &sim));
  sim.Run();
  EXPECT_EQ(v_blocked, Verdict::kAbort);
  EXPECT_NEAR(t_blocked, park_start + 0.5, 0.01);
  EXPECT_EQ(site.wait_timeouts(), 1u);
  EXPECT_TRUE(site.IsFinished(4));
  EXPECT_TRUE(graph.IsAcyclic());
}

TEST_F(GraphSiteFixture, OptimisticCommitTestOkThenCycleAborts) {
  Verdict v1 = Verdict::kAbort;
  double t1;
  sim.Spawn(RunCommitTest(&site, 1, 0, true, {Write(10), Read(11)}, &v1, &t1,
                          &sim));
  sim.Run();
  EXPECT_EQ(v1, Verdict::kOk);

  // Build the cycle precondition, then a commit-time test that closes it.
  Verdict v;
  double t;
  sim.Spawn(RunCommitTest(&site, 2, 1, true, {Write(20)}, &v, &t, &sim));
  sim.Run();
  sim.Spawn(RunCommitTest(&site, 3, 2, false, {Read(10), Read(20)}, &v, &t,
                          &sim));
  sim.Run();
  ASSERT_EQ(v, Verdict::kOk);
  Verdict v4 = Verdict::kOk;
  double t4;
  sim.Spawn(RunCommitTest(&site, 4, 3, true,
                          {Write(30), Read(10), Read(20)}, &v4, &t4, &sim));
  sim.Run();
  EXPECT_EQ(v4, Verdict::kAbort);  // optimistic never waits
  EXPECT_FALSE(graph.Contains(4));
  EXPECT_TRUE(graph.IsAcyclic());
}

TEST_F(GraphSiteFixture, LateMessagesForFinishedTxnAreAborted) {
  Verdict v;
  double t;
  sim.Spawn(RunOpTest(&site, 1, 0, true, Write(10), &v, &t, &sim));
  sim.Run();
  sim.Spawn(RunRemove(&site, 1));
  sim.Run();
  Verdict v_late = Verdict::kOk;
  double t_late;
  sim.Spawn(RunOpTest(&site, 1, 0, true, Write(11), &v_late, &t_late, &sim));
  sim.Run();
  EXPECT_EQ(v_late, Verdict::kAbort);
  EXPECT_FALSE(graph.Contains(1));
}

TEST(GraphSiteQueueTest, BoundedQueueRejects) {
  sim::Simulation sim;
  hw::Cpu cpu(&sim, "graph_cpu", 0.001);  // very slow CPU to force queueing
  ReplicationGraph graph(4);
  GraphSite site(&sim, &cpu, &graph, /*queue_bound=*/2, kTimeout);
  std::vector<Verdict> verdicts(6, Verdict::kOk);
  std::vector<double> times(6);
  for (int i = 0; i < 6; ++i) {
    sim.Spawn(RunOpTest(&site, 100 + i, 0, true, Write(i), &verdicts[i],
                        &times[i], &sim));
  }
  sim.Run();
  int rejected = 0;
  for (Verdict v : verdicts) {
    if (v == Verdict::kRejected) ++rejected;
  }
  // One in service, two queued, three rejected.
  EXPECT_EQ(rejected, 3);
  EXPECT_EQ(site.rejections(), 3u);
}

}  // namespace
}  // namespace lazyrep::rg
