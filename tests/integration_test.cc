// End-to-end integration tests: full System runs under each protocol on
// small configurations, with correctness cross-checks:
//   * one-copy serializability of the committed execution (MVSG acyclicity,
//     the paper's central correctness claim),
//   * conservation of transactions,
//   * replica convergence once the system quiesces,
//   * sane metric relationships.

#include <string>

#include <gtest/gtest.h>

#include "core/config.h"
#include "core/history.h"
#include "core/metrics.h"
#include "core/system.h"

namespace lazyrep::core {
namespace {

SystemConfig SmallConfig(int num_sites, double tps, uint64_t txns,
                         uint64_t seed) {
  SystemConfig c;
  c.num_sites = num_sites;
  c.workload.items_per_site = 10;
  c.network.latency = 0.002;
  c.network.bandwidth_bps = 155e6;
  c.tps = tps;
  c.total_txns = txns;
  c.warmup_per_site = 2;
  c.seed = seed;
  c.Normalize();
  return c;
}

struct RunResult {
  MetricsSnapshot snap;
  bool serializable = false;
  std::string why;
  bool replicas_converged = false;
  uint64_t tracker_live = 0;
};

RunResult RunOne(const SystemConfig& config, ProtocolKind kind) {
  System system(config, kind);
  HistoryRecorder history;
  system.set_history(&history);
  RunResult r;
  r.snap = system.Run();
  r.serializable = history.CheckOneCopySerializable(&r.why);
  // After Run's drain the system is quiescent: every replica of every item
  // must carry the same version.
  r.replicas_converged = true;
  for (int item = 0; item < config.total_items(); ++item) {
    db::Timestamp expect =
        system.site(config.PrimarySite(item)).store.VersionOf(item);
    for (int s = 0; s < config.num_sites; ++s) {
      if (!config.HasReplica(item, static_cast<db::SiteId>(s))) continue;
      if (system.site(static_cast<db::SiteId>(s)).store.VersionOf(item) !=
          expect) {
        r.replicas_converged = false;
      }
    }
  }
  r.tracker_live = system.tracker().live_count();
  return r;
}

class ProtocolIntegration
    : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(ProtocolIntegration, LowLoadRunsCleanly) {
  SystemConfig c = SmallConfig(4, 40, 400, 11);
  RunResult r = RunOne(c, GetParam());
  EXPECT_GT(r.snap.completed, 100u) << r.snap.ToString();
  EXPECT_TRUE(r.serializable) << r.why;
  EXPECT_TRUE(r.replicas_converged);
  // Low contention: nearly everything completes.
  EXPECT_LT(r.snap.abort_rate, 0.05) << r.snap.ToString();
  // After the drain every transaction reached a terminal state.
  EXPECT_EQ(r.tracker_live, 0u);
}

TEST_P(ProtocolIntegration, HighContentionStaysSerializable) {
  // A tiny hot database with a heavy update mix: lots of conflicts.
  SystemConfig c = SmallConfig(4, 120, 500, 23);
  c.workload.items_per_site = 4;  // 16 items total
  c.workload.read_only_fraction = 0.6;
  c.workload.write_op_fraction = 0.5;
  c.Normalize();
  RunResult r = RunOne(c, GetParam());
  // This load is far past saturation for some protocols; the point of the
  // test is that whatever commits stays one-copy serializable and that the
  // accounting balances exactly.
  EXPECT_GT(r.snap.completed, 5u) << r.snap.ToString();
  // Measured completions and aborts never exceed measured submissions plus
  // what was still in flight when the window froze.
  EXPECT_LE(r.snap.completed + r.snap.aborted,
            r.snap.submitted + r.snap.in_flight_at_end);
  EXPECT_TRUE(r.serializable) << r.why;
  EXPECT_TRUE(r.replicas_converged);
  EXPECT_EQ(r.tracker_live, 0u);
}

TEST_P(ProtocolIntegration, SeedsSweepSerializability) {
  for (uint64_t seed = 100; seed < 104; ++seed) {
    SystemConfig c = SmallConfig(3, 90, 300, seed);
    c.workload.items_per_site = 5;
    c.workload.read_only_fraction = 0.7;
    c.Normalize();
    RunResult r = RunOne(c, GetParam());
    EXPECT_TRUE(r.serializable) << "seed " << seed << ": " << r.why;
    EXPECT_TRUE(r.replicas_converged) << "seed " << seed;
    EXPECT_EQ(r.tracker_live, 0u) << "seed " << seed;
  }
}

TEST_P(ProtocolIntegration, HighLatencyNetworkStaysSerializable) {
  // OC-1*-like regime: long propagation delays make stale reads and
  // co-owned ww conflicts common — the class of schedule that requires the
  // primary-site ww merge of the union rule's first bullet.
  SystemConfig c = SmallConfig(6, 120, 600, 41);
  c.network.latency = 0.1;
  c.network.bandwidth_bps = 55e6;
  c.workload.items_per_site = 8;
  c.Normalize();
  RunResult r = RunOne(c, GetParam());
  EXPECT_TRUE(r.serializable) << r.why;
  EXPECT_TRUE(r.replicas_converged);
  EXPECT_EQ(r.tracker_live, 0u);  // no stuck completion chains
  EXPECT_GT(r.snap.completed, 50u) << r.snap.ToString();
}

TEST_P(ProtocolIntegration, MetricsAreConsistent) {
  SystemConfig c = SmallConfig(4, 60, 400, 31);
  RunResult r = RunOne(c, GetParam());
  const MetricsSnapshot& m = r.snap;
  EXPECT_EQ(m.submitted, m.submitted_read_only + m.submitted_update);
  EXPECT_EQ(m.aborted, m.aborted_read_only + m.aborted_update);
  EXPECT_EQ(m.completed, m.completed_read_only + m.completed_update);
  EXPECT_LE(m.completed + m.aborted, m.submitted + m.in_flight_at_end);
  EXPECT_GE(m.duration, 0.0);
  EXPECT_GT(m.read_only_response.Count(), 0u);
  // Response times are positive and below the plausible ceiling.
  EXPECT_GT(m.read_only_response.Mean(), 0.0);
  EXPECT_LT(m.read_only_response.Mean(), 5.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, ProtocolIntegration,
    ::testing::Values(ProtocolKind::kLocking, ProtocolKind::kPessimistic,
                      ProtocolKind::kOptimistic),
    [](const ::testing::TestParamInfo<ProtocolKind>& info) {
      return ProtocolKindName(info.param);
    });

TEST(IntegrationCrossProtocol, GraphSiteOnlyLoadedByRgProtocols) {
  SystemConfig c = SmallConfig(4, 60, 300, 7);
  RunResult locking = RunOne(c, ProtocolKind::kLocking);
  RunResult optimistic = RunOne(c, ProtocolKind::kOptimistic);
  EXPECT_EQ(locking.snap.graph_cpu_utilization, 0.0);
  EXPECT_GT(optimistic.snap.graph_cpu_utilization, 0.0);
  EXPECT_GT(optimistic.snap.graph_tests, 0u);
}

TEST(IntegrationCrossProtocol, PessimisticTestsPerOpOptimisticPerTxn) {
  SystemConfig c = SmallConfig(4, 60, 400, 7);
  RunResult pess = RunOne(c, ProtocolKind::kPessimistic);
  RunResult opt = RunOne(c, ProtocolKind::kOptimistic);
  // Pessimistic issues roughly one RGtest per operation (~10 per txn),
  // optimistic one per transaction (plus retests).
  EXPECT_GT(pess.snap.graph_tests, 3 * opt.snap.graph_tests);
}

TEST(IntegrationCrossProtocol, ThomasWriteRuleActuallyFires) {
  // With commit-time timestamps and a FIFO network, installs of one item
  // usually arrive in timestamp order; out-of-order applies happen when an
  // installer is delayed behind local lock waits at the destination. A tiny
  // write-hot database over a slow network makes that common — the TWR must
  // ignore the late writes, and the run must stay serializable and converge.
  uint64_t ignored = 0;
  for (uint64_t seed = 2; seed <= 5; ++seed) {
    SystemConfig c;
    c.num_sites = 8;
    c.workload.items_per_site = 2;
    c.workload.read_only_fraction = 0.3;
    c.workload.write_op_fraction = 0.7;
    c.workload.min_ops = 3;
    c.workload.max_ops = 6;
    c.network.latency = 0.05;
    c.network.bandwidth_bps = 55e6;
    c.tps = 200;
    c.total_txns = 800;
    c.warmup_per_site = 2;
    c.seed = seed;
    c.Normalize();
    RunResult r = RunOne(c, ProtocolKind::kOptimistic);
    ignored += r.snap.writes_ignored_twr;
    EXPECT_TRUE(r.serializable) << r.why;
    EXPECT_TRUE(r.replicas_converged);
    EXPECT_EQ(r.tracker_live, 0u);
  }
  EXPECT_GT(ignored, 0u);
}

TEST(IntegrationGatekeeper, BoundsConcurrentReadOnlyTxns) {
  SystemConfig c = SmallConfig(3, 80, 300, 5);
  c.read_gatekeeper = 1;
  RunResult r = RunOne(c, ProtocolKind::kOptimistic);
  EXPECT_GT(r.snap.completed, 50u) << r.snap.ToString();
  EXPECT_TRUE(r.serializable) << r.why;
  EXPECT_EQ(r.tracker_live, 0u);
}

TEST(IntegrationPartialReplication, DegreeTwoStaysCorrect) {
  SystemConfig c = SmallConfig(5, 60, 400, 9);
  c.replication_degree = 2;
  c.Normalize();
  RunResult r = RunOne(c, ProtocolKind::kOptimistic);
  EXPECT_GT(r.snap.completed, 100u) << r.snap.ToString();
  EXPECT_TRUE(r.serializable) << r.why;
  EXPECT_TRUE(r.replicas_converged);
}

// A degree of #sites or more is full replication: the same graph mode and
// replica targets, so the same run as degree 0. (A partial-mode graph whose
// every site holds every item ran this pessimistic point differently: one
// more RGtest and one more cycle abort.)
TEST(IntegrationPartialReplication, DegreeAtOrBeyondSitesRunsAsFull) {
  SystemConfig full;
  full.num_sites = 4;
  full.workload.items_per_site = 10;
  full.tps = 100;
  full.total_txns = 500;
  for (ProtocolKind kind :
       {ProtocolKind::kPessimistic, ProtocolKind::kOptimistic}) {
    const std::string expect = RunOne(full, kind).snap.ToString();
    for (int degree : {4, 6}) {
      SystemConfig c = full;
      c.replication_degree = degree;
      EXPECT_EQ(RunOne(c, kind).snap.ToString(), expect)
          << ProtocolKindName(kind) << ", degree " << degree;
    }
  }
}

TEST(IntegrationPartialReplication, ReplicaTargetsAreTheWrittenItemsSites) {
  SystemConfig c = SmallConfig(5, 60, 400, 9);
  c.replication_degree = 2;
  System system(c, ProtocolKind::kOptimistic);
  txn::Transaction t;
  t.origin = 1;
  // Ten items per site: item 12 lives at sites 1 and 2, item 45 at sites 4
  // and 0 (wrapping).
  t.ops = {{db::OpType::kWrite, 12}, {db::OpType::kWrite, 45}};
  EXPECT_EQ(system.ReplicaTargets(t, 1), (std::vector<db::SiteId>{0, 2, 4}));
  c.replication_degree = 7;
  System full(c, ProtocolKind::kOptimistic);
  EXPECT_EQ(full.ReplicaTargets(t, 1),
            (std::vector<db::SiteId>{0, 2, 3, 4}));
}

}  // namespace
}  // namespace lazyrep::core
