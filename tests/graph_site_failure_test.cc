// Failure-path tests for the graph site: bounded-queue overflow rejection,
// deadlock-timeout expiry of parked requests, and idempotent removal — the
// paths a faulty run leans on hardest.

#include <gtest/gtest.h>

#include "db/types.h"
#include "hw/cpu.h"
#include "rg/graph_site.h"
#include "rg/replication_graph.h"
#include "sim/process.h"
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

struct Fixture : public ::testing::Test {
  Fixture()
      : cpu(&sim, "graph_cpu", 300.0),
        graph(4),
        site(&sim, &cpu, &graph, kQueueBound, kTimeout) {}

  sim::Process Op(GraphSite* gs, TxnId txn, SiteId origin, bool global,
                  Operation op, Verdict* out, double* when = nullptr) {
    struct Runner {
      static sim::Process Run(sim::Simulation* sim, GraphSite* gs, TxnId txn,
                              SiteId origin, bool global, Operation op,
                              Verdict* out, double* when) {
        *out = co_await gs->Test(txn, origin, global, {&op, 1},
                                 /*may_wait=*/true);
        if (when != nullptr) *when = sim->Now();
      }
    };
    return Runner::Run(&sim, gs, txn, origin, global, op, out, when);
  }

  sim::Process Remove(TxnId txn) {
    struct Runner {
      static sim::Process Run(Fixture* f, TxnId txn) {
        co_await f->site.HandleRemove(txn);
      }
    };
    return Runner::Run(this, txn);
  }

  // T1 writes x, T2 writes y, a local transaction at site 2 reads both:
  // any later global reader of x and y at another site closes a cycle.
  void BuildBridge(ItemId x, ItemId y, TxnId t1, TxnId t2, TxnId local) {
    Verdict v;
    sim.Spawn(Op(&site, t1, 0, true, Write(x), &v));
    sim.Run();
    sim.Spawn(Op(&site, t2, 1, true, Write(y), &v));
    sim.Run();
    sim.Spawn(Op(&site, local, 2, false, Read(x), &v));
    sim.Run();
    sim.Spawn(Op(&site, local, 2, false, Read(y), &v));
    sim.Run();
    ASSERT_EQ(v, Verdict::kOk);
  }

  sim::Simulation sim;
  hw::Cpu cpu;
  ReplicationGraph graph;
  GraphSite site;
};

TEST_F(Fixture, QueueBoundOverflowReturnsRejected) {
  hw::Cpu slow_cpu(&sim, "slow", 0.05);  // 50k instr/s: requests pile up
  ReplicationGraph g2(4);
  GraphSite s2(&sim, &slow_cpu, &g2, /*queue_bound=*/3, kTimeout);
  std::vector<Verdict> burst(10, Verdict::kOk);
  std::vector<double> when(10, -1);
  for (int i = 0; i < 10; ++i) {
    sim.Spawn(Op(&s2, 100 + i, 0, true, Write(static_cast<ItemId>(i)),
                 &burst[i], &when[i]));
  }
  sim.Run();
  int rejected = 0;
  for (int i = 0; i < 10; ++i) {
    if (burst[i] == Verdict::kRejected) ++rejected;
  }
  EXPECT_GT(rejected, 0);
  EXPECT_EQ(s2.rejections(), static_cast<uint64_t>(rejected));
  // A rejected transaction leaves no trace in the graph.
  for (int i = 0; i < 10; ++i) {
    if (burst[i] == Verdict::kRejected) {
      EXPECT_FALSE(g2.Contains(100 + i)) << i;
      EXPECT_TRUE(s2.IsFinished(100 + i)) << i;
    }
  }
}

TEST_F(Fixture, WaitTimeoutExpiresToAbortAndRemoves) {
  BuildBridge(10, 20, 1, 2, 3);
  Verdict v;
  sim.Spawn(Op(&site, 4, 3, true, Write(30), &v));
  sim.Run();
  sim.Spawn(Op(&site, 4, 3, true, Read(10), &v));
  sim.Run();
  // Closing read parks; nobody ever releases the cycle, so the 0.5 s
  // deadlock timeout must fire and the verdict must be abort.
  Verdict blocked = Verdict::kOk;
  double when = -1;
  double parked_at = sim.Now();
  sim.Spawn(Op(&site, 4, 3, true, Read(20), &blocked, &when));
  sim.Run(parked_at + 0.1);
  ASSERT_EQ(site.parked_requests(), 1u);
  sim.Run();
  EXPECT_EQ(blocked, Verdict::kAbort);
  EXPECT_EQ(site.wait_timeouts(), 1u);
  EXPECT_GE(when, parked_at + kTimeout);
  // The timeout path removed the transaction from the graph on its own.
  EXPECT_EQ(site.parked_requests(), 0u);
  EXPECT_FALSE(graph.Contains(4));
  EXPECT_TRUE(site.IsFinished(4));
  EXPECT_TRUE(graph.IsAcyclic());
}

TEST_F(Fixture, WaitTimeoutWhileRetestQueuesBehindBusyCpu) {
  BuildBridge(10, 20, 1, 2, 3);
  Verdict v;
  sim.Spawn(Op(&site, 4, 3, true, Write(30), &v));
  sim.Run();
  sim.Spawn(Op(&site, 4, 3, true, Read(10), &v));
  sim.Run();
  sim.Spawn(Op(&site, 5, 0, true, Write(40), &v));  // unrelated to the cycle
  sim.Run();
  Verdict blocked = Verdict::kOk;
  double when = -1;
  const double parked_at = sim.Now();
  sim.Spawn(Op(&site, 4, 3, true, Read(20), &blocked, &when));
  sim.Run(parked_at + 0.1);
  ASSERT_EQ(site.parked_requests(), 1u);
  // Removing txn 5 starts the retest pump, whose test of the parked head
  // queues behind a second of other work: the head's deadlock timeout fires
  // while that test waits, and the timeout's own remove queues behind it.
  struct Busy {
    static sim::Process Run(hw::Cpu* cpu, double instructions) {
      co_await cpu->Execute(instructions);
    }
  };
  sim.Spawn(Remove(5));
  sim.Spawn(Busy::Run(&cpu, 300e6));
  sim.Run(parked_at + kTimeout + 0.1);
  EXPECT_EQ(site.wait_timeouts(), 1u);
  EXPECT_EQ(site.parked_requests(), 0u);
  EXPECT_TRUE(site.IsFinished(4));
  EXPECT_EQ(when, -1);  // the verdict waits for the remove behind the retest
  sim.Run();
  EXPECT_EQ(blocked, Verdict::kAbort);
  EXPECT_GE(when, parked_at + 1.1);
  EXPECT_FALSE(graph.Contains(4));
  EXPECT_FALSE(graph.Contains(5));
  EXPECT_TRUE(graph.IsAcyclic());
}

TEST_F(Fixture, ShorterWaitTimeoutIsRespected) {
  hw::Cpu cpu2(&sim, "graph_cpu2", 300.0);
  ReplicationGraph g2(4);
  GraphSite s2(&sim, &cpu2, &g2, kQueueBound, /*timeout=*/0.1);
  Verdict v;
  // Same bridge, on the second site instance.
  sim.Spawn(Op(&s2, 1, 0, true, Write(10), &v));
  sim.Run();
  sim.Spawn(Op(&s2, 2, 1, true, Write(20), &v));
  sim.Run();
  sim.Spawn(Op(&s2, 3, 2, false, Read(10), &v));
  sim.Run();
  sim.Spawn(Op(&s2, 3, 2, false, Read(20), &v));
  sim.Run();
  ASSERT_EQ(v, Verdict::kOk);
  sim.Spawn(Op(&s2, 4, 3, true, Write(30), &v));
  sim.Run();
  sim.Spawn(Op(&s2, 4, 3, true, Read(10), &v));
  sim.Run();
  Verdict blocked = Verdict::kOk;
  double when = -1;
  double parked_at = sim.Now();
  sim.Spawn(Op(&s2, 4, 3, true, Read(20), &blocked, &when));
  sim.Run();
  EXPECT_EQ(blocked, Verdict::kAbort);
  EXPECT_GE(when, parked_at + 0.1);
  EXPECT_LT(when, parked_at + 0.2);  // well short of the default 0.5 s
}

TEST_F(Fixture, HandleRemoveIsIdempotent) {
  Verdict v = Verdict::kAbort;
  sim.Spawn(Op(&site, 7, 0, true, Write(10), &v));
  sim.Run();
  ASSERT_EQ(v, Verdict::kOk);
  ASSERT_TRUE(graph.Contains(7));
  sim.Spawn(Remove(7));
  sim.Run();
  EXPECT_FALSE(graph.Contains(7));
  EXPECT_TRUE(site.IsFinished(7));
  // Duplicate removal (e.g. a retransmitted abort notice) is harmless.
  sim.Spawn(Remove(7));
  sim.Run();
  EXPECT_FALSE(graph.Contains(7));
  EXPECT_TRUE(site.IsFinished(7));
  EXPECT_TRUE(graph.IsAcyclic());
}

TEST_F(Fixture, RemoveOfUnknownTransactionIsHarmless) {
  sim.Spawn(Remove(9999));
  sim.Run();
  EXPECT_TRUE(site.IsFinished(9999));
  EXPECT_TRUE(graph.IsAcyclic());
  // The site still serves fresh work afterwards.
  Verdict v = Verdict::kAbort;
  sim.Spawn(Op(&site, 8, 0, true, Write(11), &v));
  sim.Run();
  EXPECT_EQ(v, Verdict::kOk);
}

}  // namespace
}  // namespace lazyrep::rg
