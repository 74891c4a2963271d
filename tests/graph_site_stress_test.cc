// Stress and edge-case tests for the graph-site manager: parked-request
// fairness, per-transaction verdict ordering, cancellation races, and
// recovery after rejection storms.

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

struct Fixture : public ::testing::Test {
  Fixture()
      : cpu(&sim, "graph_cpu", 300.0),
        graph(4),
        site(&sim, &cpu, &graph, kQueueBound, kTimeout) {}

  sim::Process Op(TxnId txn, SiteId origin, bool global, Operation op,
                  Verdict* out, double* when = nullptr) {
    struct Runner {
      static sim::Process Run(Fixture* f, TxnId txn, SiteId origin,
                              bool global, Operation op, Verdict* out,
                              double* when) {
        *out = co_await f->site.Test(txn, origin, global, {&op, 1},
                                     /*may_wait=*/true);
        if (when != nullptr) *when = f->sim.Now();
      }
    };
    return Runner::Run(this, txn, origin, global, op, out, when);
  }

  sim::Process Remove(TxnId txn) {
    struct Runner {
      static sim::Process Run(Fixture* f, TxnId txn) {
        co_await f->site.HandleRemove(txn);
      }
    };
    return Runner::Run(this, txn);
  }

  // Builds the standard two-writer bridge: T1 writes x, T2 writes y, local
  // L at site 2 reads both; a later transaction reading x and y at another
  // site closes a cycle.
  void BuildBridge(ItemId x, ItemId y, TxnId t1, TxnId t2, TxnId local) {
    Verdict v;
    sim.Spawn(Op(t1, 0, true, Write(x), &v));
    sim.Run();
    sim.Spawn(Op(t2, 1, true, Write(y), &v));
    sim.Run();
    sim.Spawn(Op(local, 2, false, Read(x), &v));
    sim.Run();
    sim.Spawn(Op(local, 2, false, Read(y), &v));
    sim.Run();
    ASSERT_EQ(v, Verdict::kOk);
  }

  sim::Simulation sim;
  hw::Cpu cpu;
  ReplicationGraph graph;
  GraphSite site;
};

TEST_F(Fixture, ParkedRequestsUnblockInFifoOrder) {
  BuildBridge(10, 20, 1, 2, 3);
  // Three global transactions at distinct sites each close the same cycle;
  // all park. Removing T2 releases them; grants must follow arrival order.
  std::vector<Verdict> setup(3, Verdict::kAbort);
  Verdict blocked[3] = {Verdict::kAbort, Verdict::kAbort, Verdict::kAbort};
  double when[3] = {-1, -1, -1};
  TxnId ids[3] = {100, 101, 102};
  for (int i = 0; i < 3; ++i) {
    sim.Spawn(Op(ids[i], 3, true, Write(30 + i), &setup[i]));
    sim.Run();
    ASSERT_EQ(setup[i], Verdict::kOk);
    sim.Spawn(Op(ids[i], 3, true, Read(10), &setup[i]));
    sim.Run();
    ASSERT_EQ(setup[i], Verdict::kOk);
  }
  for (int i = 0; i < 3; ++i) {
    sim.Spawn(Op(ids[i], 3, true, Read(20), &blocked[i], &when[i]));
  }
  sim.Run(0.1);
  EXPECT_EQ(site.parked_requests(), 3u);
  // Unblock: T2 (writer of 20) aborts. Note: releasing the first parked
  // request re-merges groups, so later ones may re-park and time out; at
  // minimum the FIRST parked transaction must be granted promptly.
  sim.ScheduleCallbackAt(0.15, [&] { sim.Spawn(Remove(2)); });
  sim.Run();
  EXPECT_EQ(blocked[0], Verdict::kOk);
  EXPECT_LT(when[0], 0.2);
  // Whatever the later outcomes, every parked slot must have resolved.
  EXPECT_EQ(site.parked_requests(), 0u);
  for (int i = 1; i < 3; ++i) {
    EXPECT_NE(blocked[i], Verdict::kRejected);
  }
  EXPECT_TRUE(graph.IsAcyclic());
}

TEST_F(Fixture, PerTransactionVerdictsArriveInSubmissionOrder) {
  // One transaction pipelines several operations; the graph site must
  // deliver their verdicts in submission order (FIFO CPU queue).
  std::vector<Verdict> verdicts(6, Verdict::kAbort);
  std::vector<double> when(6, -1);
  for (int i = 0; i < 6; ++i) {
    sim.Spawn(Op(50, 0, true, i % 2 ? Read(40 + i) : Write(40 + i),
                 &verdicts[i], &when[i]));
  }
  sim.Run();
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(verdicts[i], Verdict::kOk);
    if (i > 0) {
      EXPECT_GE(when[i], when[i - 1]);
    }
  }
}

TEST_F(Fixture, HandleRemoveCancelsParkedOps) {
  BuildBridge(10, 20, 1, 2, 3);
  Verdict v;
  sim.Spawn(Op(4, 3, true, Write(30), &v));
  sim.Run();
  sim.Spawn(Op(4, 3, true, Read(10), &v));
  sim.Run();
  Verdict blocked = Verdict::kOk;
  sim.Spawn(Op(4, 3, true, Read(20), &blocked));
  sim.Run(0.05);
  ASSERT_EQ(site.parked_requests(), 1u);
  // The origin aborts txn 4 (e.g. a local lock timeout): the parked op must
  // resolve to abort well before its own 0.5 s wait timeout.
  sim.Spawn(Remove(4));
  sim.Run(0.2);
  EXPECT_EQ(blocked, Verdict::kAbort);
  EXPECT_EQ(site.parked_requests(), 0u);
  EXPECT_FALSE(graph.Contains(4));
}

TEST_F(Fixture, RejectionStormRecovers) {
  // Saturate the bounded queue with a burst; later traffic must be admitted
  // once the queue drains.
  hw::Cpu slow_cpu(&sim, "slow", 0.05);  // 50k instructions/second
  ReplicationGraph g2(4);
  GraphSite s2(&sim, &slow_cpu, &g2, /*queue_bound=*/4, kTimeout);
  std::vector<Verdict> burst(12, Verdict::kOk);
  for (int i = 0; i < 12; ++i) {
    struct Runner {
      static sim::Process Run(GraphSite* gs, TxnId t, Verdict* out) {
        const Operation op = Write(static_cast<ItemId>(t));
        *out = co_await gs->Test(t, 0, true, {&op, 1}, /*may_wait=*/true);
      }
    };
    sim.Spawn(Runner::Run(&s2, 200 + i, &burst[i]));
  }
  sim.Run();
  int rejected = 0;
  for (Verdict v : burst) {
    if (v == Verdict::kRejected) ++rejected;
  }
  EXPECT_GT(rejected, 0);
  EXPECT_LT(rejected, 12);
  // After the storm, a fresh transaction is admitted normally.
  Verdict later = Verdict::kRejected;
  struct Runner {
    static sim::Process Run(GraphSite* gs, Verdict* out) {
      const Operation op = Write(90);
      *out = co_await gs->Test(500, 1, true, {&op, 1}, /*may_wait=*/true);
    }
  };
  sim.Spawn(Runner::Run(&s2, &later));
  sim.Run();
  EXPECT_EQ(later, Verdict::kOk);
}

TEST_F(Fixture, RandomizedChurnKeepsGraphAcyclicAndParkingBounded) {
  sim::RandomStream rng(99);
  std::vector<TxnId> live;
  TxnId next = 1000;
  std::vector<std::unique_ptr<Verdict>> verdicts;
  for (int step = 0; step < 400; ++step) {
    double roll = rng.Uniform01();
    if (roll < 0.5 || live.empty()) {
      TxnId t = next++;
      live.push_back(t);
      auto v = std::make_unique<Verdict>(Verdict::kAbort);
      SiteId origin = static_cast<SiteId>(rng.UniformInt(0, 3));
      bool global = rng.Chance(0.5);
      Operation op = global && rng.Chance(0.4)
                         ? Write(static_cast<ItemId>(
                               rng.UniformInt(0, 15)))
                         : Read(static_cast<ItemId>(rng.UniformInt(0, 15)));
      sim.Spawn(Op(t, origin, global, op, v.get()));
      verdicts.push_back(std::move(v));
    } else {
      size_t idx = rng.UniformInt(0, live.size() - 1);
      TxnId t = live[idx];
      live.erase(live.begin() + idx);
      sim.Spawn(Remove(t));
    }
    sim.Run(sim.Now() + rng.Uniform(0, 0.02));
  }
  sim.Run();  // drain: every wait resolves (grant, cancel, or 0.5s timeout)
  EXPECT_TRUE(graph.IsAcyclic());
  EXPECT_EQ(site.parked_requests(), 0u);
}

}  // namespace
}  // namespace lazyrep::rg
