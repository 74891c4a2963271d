// The determinism contract of the parallel study runner: StudyPoint series
// are byte-identical regardless of --jobs level, point ordering, or which
// subset of a sweep is selected — because each point's seed is derived from
// its identity, every simulation is self-contained, and results are
// collected in canonical order. Plus unit coverage of ParallelFor itself.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/parallel.h"
#include "core/study.h"
#include "trace/trace_sink.h"

namespace lazyrep::core {
namespace {

SystemConfig TinyConfig(double tps) {
  SystemConfig c;
  c.num_sites = 3;
  c.workload.items_per_site = 10;
  c.network.latency = 0.002;
  c.tps = tps;
  c.total_txns = 250;
  c.warmup_per_site = 2;
  c.seed = 9;
  c.Normalize();
  return c;
}

StudyRunner MakeRunner() {
  StudyRunner r("par-test", [](double tps) { return TinyConfig(tps); });
  // The full four-way comparison: three lazy protocols + the eager baseline.
  r.set_protocols({ProtocolKind::kLocking, ProtocolKind::kPessimistic,
                   ProtocolKind::kOptimistic, ProtocolKind::kEager});
  return r;
}

/// Renders every numeric field a figure could plot with %a (hex floats), so
/// equality of fingerprints is bit-equality of the results, not a rounded
/// approximation.
std::string Fingerprint(const StudyPoint& p) {
  char buf[768];
  std::snprintf(
      buf, sizeof(buf),
      "%a|%d|%llu|%llu|%llu|%llu|%a|%a|%a|%a|%a|%a|%a|%a|%llu|%llu|%llu\n",
      p.x, static_cast<int>(p.protocol), (unsigned long long)p.snap.submitted,
      (unsigned long long)p.snap.committed,
      (unsigned long long)p.snap.completed, (unsigned long long)p.snap.aborted,
      p.snap.completed_tps, p.snap.abort_rate, p.snap.duration,
      p.snap.read_only_response.Mean(), p.snap.update_response.Mean(),
      p.snap.commit_to_complete.Mean(), p.snap.graph_cpu_utilization,
      p.snap.mean_disk_utilization, (unsigned long long)p.snap.lock_waits,
      (unsigned long long)p.snap.graph_tests,
      (unsigned long long)p.snap.in_flight_at_end);
  return buf;
}

std::string FingerprintAll(const std::vector<StudyPoint>& points) {
  std::string out;
  for (const StudyPoint& p : points) out += Fingerprint(p);
  return out;
}

/// Sorts points into (protocol, x) order, independent of sweep ordering.
void SortCanonical(std::vector<StudyPoint>* points) {
  std::stable_sort(points->begin(), points->end(),
                   [](const StudyPoint& a, const StudyPoint& b) {
                     if (a.protocol != b.protocol) {
                       return a.protocol < b.protocol;
                     }
                     return a.x < b.x;
                   });
}

TEST(ParallelStudyTest, JobsLevelsProduceByteIdenticalSeries) {
  StudyRunner serial = MakeRunner();
  serial.set_jobs(1);
  std::vector<StudyPoint> s1 = serial.Sweep({30, 60, 90}, /*verbose=*/false);

  StudyRunner parallel = MakeRunner();
  parallel.set_jobs(4);
  std::vector<StudyPoint> s4 = parallel.Sweep({30, 60, 90}, false);

  ASSERT_EQ(s1.size(), 12u);  // 4 protocols x 3 loads
  EXPECT_EQ(FingerprintAll(s1), FingerprintAll(s4));
}

TEST(ParallelStudyTest, ShuffledPointOrderIsByteIdentical) {
  StudyRunner ordered = MakeRunner();
  ordered.set_jobs(4);
  std::vector<StudyPoint> a = ordered.Sweep({30, 60, 90}, false);

  StudyRunner shuffled = MakeRunner();
  shuffled.set_jobs(4);
  std::vector<StudyPoint> b = shuffled.Sweep({90, 30, 60}, false);

  SortCanonical(&a);
  SortCanonical(&b);
  EXPECT_EQ(FingerprintAll(a), FingerprintAll(b));
}

TEST(ParallelStudyTest, SubsetSelectionPreservesPointResults) {
  StudyRunner full = MakeRunner();
  full.set_jobs(2);
  std::vector<StudyPoint> all = full.Sweep({30, 60, 90}, false);

  StudyRunner subset = MakeRunner();
  subset.set_jobs(2);
  std::vector<StudyPoint> one = subset.Sweep({60}, false);

  // A point's result depends only on what it is, never on which other
  // points ran beside it.
  ASSERT_EQ(one.size(), 4u);
  for (const StudyPoint& p : one) {
    bool matched = false;
    for (const StudyPoint& q : all) {
      if (q.protocol == p.protocol && q.x == p.x) {
        EXPECT_EQ(Fingerprint(q), Fingerprint(p));
        matched = true;
      }
    }
    EXPECT_TRUE(matched);
  }
}

TEST(ParallelStudyTest, PointsReturnedInCanonicalOrder) {
  StudyRunner runner = MakeRunner();
  runner.set_jobs(4);
  runner.set_protocols({ProtocolKind::kOptimistic, ProtocolKind::kLocking});
  std::vector<StudyPoint> points = runner.Sweep({60, 30}, false);
  ASSERT_EQ(points.size(), 4u);
  // Protocol-major in set_protocols order, xs in argument order — no matter
  // which worker finished first.
  EXPECT_EQ(points[0].protocol, ProtocolKind::kOptimistic);
  EXPECT_EQ(points[0].x, 60);
  EXPECT_EQ(points[1].protocol, ProtocolKind::kOptimistic);
  EXPECT_EQ(points[1].x, 30);
  EXPECT_EQ(points[2].protocol, ProtocolKind::kLocking);
  EXPECT_EQ(points[2].x, 60);
  EXPECT_EQ(points[3].protocol, ProtocolKind::kLocking);
  EXPECT_EQ(points[3].x, 30);
}

TEST(ParallelStudyTest, FleetWideSerializabilityAudit) {
  StudyRunner runner = MakeRunner();
  runner.set_jobs(4);
  runner.set_check_serializability(true);
  std::vector<StudyPoint> points = runner.Sweep({40, 80}, false);
  ASSERT_EQ(points.size(), 8u);
  for (const StudyPoint& p : points) {
    EXPECT_EQ(p.snap.serializable, 1)
        << ProtocolKindName(p.protocol) << " x=" << p.x << ": "
        << p.snap.serializability_why;
    EXPECT_GT(p.snap.history_committed, 0u);
    EXPECT_GT(p.snap.history_reads, 0u);
  }
}

TEST(ParallelStudyTest, AuditOffLeavesSnapshotsUnchecked) {
  StudyRunner runner = MakeRunner();
  runner.set_jobs(2);
  runner.set_protocols({ProtocolKind::kOptimistic});
  std::vector<StudyPoint> points = runner.Sweep({40}, false);
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].snap.serializable, -1);
  EXPECT_EQ(points[0].snap.history_committed, 0u);
}

TEST(ParallelStudyTest, ChaosSchedulesAreByteIdenticalAtAnyJobsLevel) {
  // The chaos harness (bench_chaos) must keep its results bit-identical at
  // any --jobs level even though every run injects crashes, replays WALs,
  // and heals partitions: schedule configs derive from identity alone and
  // the audit runs after each run's own drain.
  ChaosOptions opt;
  opt.txns = 200;
  std::vector<RunSpec> specs;
  for (ProtocolKind kind :
       {ProtocolKind::kLocking, ProtocolKind::kPessimistic,
        ProtocolKind::kOptimistic, ProtocolKind::kEager}) {
    for (int s = 0; s < 6; ++s) {
      specs.push_back({MakeChaosConfig(opt, kind, s), kind});
    }
  }
  auto fingerprint = [](const std::vector<MetricsSnapshot>& ms) {
    std::string out;
    for (const MetricsSnapshot& m : ms) {
      char buf[512];
      std::snprintf(buf, sizeof(buf),
                    "%llu|%llu|%llu|%d|%d|%llu|%llu|%llu|%a|%llu|%llu|%a\n",
                    (unsigned long long)m.committed,
                    (unsigned long long)m.completed,
                    (unsigned long long)m.aborted, m.serializable,
                    m.replicas_converged, (unsigned long long)m.stranded_txns,
                    (unsigned long long)m.site_crashes,
                    (unsigned long long)m.site_recoveries,
                    m.recovery_replay.Mean(),
                    (unsigned long long)m.wal_forces,
                    (unsigned long long)m.catchup_installs,
                    m.update_response.Mean());
      out += buf;
    }
    return out;
  };
  std::vector<MetricsSnapshot> serial =
      RunAll(specs, /*jobs=*/1, /*check_serializability=*/true, {},
             /*post_run_audit=*/true);
  std::vector<MetricsSnapshot> parallel =
      RunAll(specs, /*jobs=*/4, /*check_serializability=*/true, {},
             /*post_run_audit=*/true);
  ASSERT_EQ(serial.size(), 24u);
  EXPECT_EQ(fingerprint(serial), fingerprint(parallel));
  // And the invariants themselves hold on every schedule.
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].serializable, 1)
        << i << ": " << serial[i].serializability_why;
    EXPECT_EQ(serial[i].replicas_converged, 1)
        << i << ": " << serial[i].convergence_why;
    EXPECT_EQ(serial[i].stranded_txns, 0u) << i;
  }
}

std::string ReadFileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return {};
  std::string bytes;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
  std::fclose(f);
  return bytes;
}

TEST(ParallelStudyTest, TraceBytesAreIdenticalAtAnyJobsLevel) {
  // The --trace determinism contract: workers write per-point shards that
  // are merged in canonical spec order, so the final file's bytes are
  // independent of the jobs level — and no shard files survive the merge.
  std::string p1 = ::testing::TempDir() + "par_study_j1.trace";
  std::string p4 = ::testing::TempDir() + "par_study_j4.trace";

  StudyRunner serial = MakeRunner();
  serial.set_jobs(1);
  serial.set_check_serializability(true);
  serial.set_trace_path(p1);
  std::vector<StudyPoint> s1 = serial.Sweep({30, 60}, /*verbose=*/false);

  StudyRunner parallel = MakeRunner();
  parallel.set_jobs(4);
  parallel.set_check_serializability(true);
  parallel.set_trace_path(p4);
  std::vector<StudyPoint> s4 = parallel.Sweep({30, 60}, false);

  ASSERT_EQ(s1.size(), 8u);  // 4 protocols x 2 loads
  EXPECT_EQ(FingerprintAll(s1), FingerprintAll(s4));

  std::string b1 = ReadFileBytes(p1);
  std::string b4 = ReadFileBytes(p4);
  ASSERT_FALSE(b1.empty());
  EXPECT_EQ(b1, b4) << "trace bytes differ between --jobs=1 and --jobs=4";

  // Every worker shard must have been consumed by the merge.
  for (size_t i = 0; i < s4.size(); ++i) {
    std::string shard = trace::ShardPath(p4, i);
    std::FILE* f = std::fopen(shard.c_str(), "rb");
    EXPECT_EQ(f, nullptr) << shard << " left behind";
    if (f != nullptr) std::fclose(f);
  }
  std::remove(p1.c_str());
  std::remove(p4.c_str());
}

TEST(ParallelStudyTest, TracingLeavesStudyResultsUntouched) {
  // Recording a trace must not perturb the simulation: the study points of
  // a traced sweep are bit-identical to an untraced one.
  StudyRunner plain = MakeRunner();
  plain.set_jobs(2);
  std::vector<StudyPoint> a = plain.Sweep({45}, false);

  std::string path = ::testing::TempDir() + "par_study_untouched.trace";
  StudyRunner traced = MakeRunner();
  traced.set_jobs(2);
  traced.set_trace_path(path);
  std::vector<StudyPoint> b = traced.Sweep({45}, false);

  EXPECT_EQ(FingerprintAll(a), FingerprintAll(b));
  std::remove(path.c_str());
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  // Each slot is written by exactly one task, so no synchronization needed.
  std::vector<int> hits(257, 0);
  ParallelFor(8, hits.size(), [&hits](size_t i) { hits[i]++; });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i], 1) << "index " << i;
  }
}

TEST(ParallelForTest, SingleJobRunsInIndexOrder) {
  std::vector<size_t> order;
  ParallelFor(1, 5, [&order](size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 5u);
  for (size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

}  // namespace
}  // namespace lazyrep::core
