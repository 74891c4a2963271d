// Replay fidelity contract for the src/replay/ engine (DESIGN.md §4.9).
//
// The heart of the guarantee: a workload script extracted from a --trace
// capture, replayed under the same protocol / topology / seed, reproduces
// the original run EXACTLY — same MetricsSnapshot bit for bit (hex-float
// fingerprints), same serializability verdict, and a byte-identical event
// stream in its own trace — at any --jobs level. With that floor pinned,
// what-if replays (same script, different protocol or topology) are
// meaningful: every behavioral difference is attributable to the changed
// knob, never to workload re-sampling.

#include <cstdio>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/config.h"
#include "core/study.h"
#include "replay/trace_diff.h"
#include "replay/workload_script.h"
#include "trace/trace_reader.h"

namespace lazyrep {
namespace {

const std::vector<core::ProtocolKind> kAll = {
    core::ProtocolKind::kLocking, core::ProtocolKind::kPessimistic,
    core::ProtocolKind::kOptimistic, core::ProtocolKind::kEager};

core::SystemConfig SmallConfig() {
  core::SystemConfig c;
  c.num_sites = 4;
  c.workload.items_per_site = 12;
  c.tps = 80;
  c.total_txns = 300;
  c.warmup_per_site = 2;
  c.seed = core::DerivePointSeed("replay-fidelity",
                                 core::ProtocolKind::kOptimistic, 80, 41);
  c.Normalize();
  return c;
}

/// Hex-float fingerprint over a broad slice of the snapshot: %a for floats,
/// so equality is bit-exactness, not approximation.
std::string Fp(const core::MetricsSnapshot& m) {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "%llu|%llu|%llu|%llu|%a|%a|%a|%a|%a|%a|%a|%a|%a|%a|%llu|%llu|%llu|%llu|"
      "%llu|%llu|%d",
      (unsigned long long)m.submitted, (unsigned long long)m.committed,
      (unsigned long long)m.completed, (unsigned long long)m.aborted,
      m.completed_tps, m.abort_rate, m.duration, m.read_only_response.Mean(),
      m.update_response.Mean(), m.commit_to_complete.Mean(),
      m.read_only_quantiles.P95(), m.update_quantiles.P95(),
      m.graph_cpu_utilization, m.mean_network_utilization,
      (unsigned long long)m.lock_waits, (unsigned long long)m.lock_timeouts,
      (unsigned long long)m.graph_tests, (unsigned long long)m.graph_rejections,
      (unsigned long long)m.in_flight_at_end,
      (unsigned long long)m.retransmissions, m.serializable);
  return buf;
}

/// Records one traced run and hands back its snapshot and decoded trace.
void Capture(const core::RunSpec& spec, const std::string& path, int jobs,
             core::MetricsSnapshot* snap, trace::TraceFile* file) {
  std::vector<core::MetricsSnapshot> snaps =
      core::RunAll({spec}, jobs, /*check_serializability=*/true, {},
                   /*post_run_audit=*/false, path);
  ASSERT_EQ(snaps.size(), 1u);
  *snap = snaps[0];
  std::string error;
  ASSERT_TRUE(trace::ReadTraceFile(path, file, &error)) << error;
  ASSERT_EQ(file->points.size(), 1u);
}

/// Extracts the script of `file`'s only point, asserting success.
void Extract(const trace::TraceFile& file,
             std::shared_ptr<replay::WorkloadScript>* out) {
  auto script = std::make_shared<replay::WorkloadScript>();
  std::string error;
  ASSERT_TRUE(replay::WorkloadScript::FromPoint(
      file.points[0], file.header.version, script.get(), &error))
      << error;
  *out = script;
}

void ExpectSameSchedule(const replay::WorkloadScript& a,
                        const replay::WorkloadScript& b) {
  ASSERT_EQ(a.num_sites(), b.num_sites());
  ASSERT_EQ(a.total_submissions(), b.total_submissions());
  for (int s = 0; s < a.num_sites(); ++s) {
    const std::vector<replay::ScriptTxn>& sa = a.site(s);
    const std::vector<replay::ScriptTxn>& sb = b.site(s);
    ASSERT_EQ(sa.size(), sb.size()) << "site " << s;
    for (size_t i = 0; i < sa.size(); ++i) {
      EXPECT_EQ(sa[i].submit_time, sb[i].submit_time) << s << "/" << i;
      EXPECT_EQ(sa[i].is_update, sb[i].is_update) << s << "/" << i;
      ASSERT_EQ(sa[i].ops.size(), sb[i].ops.size()) << s << "/" << i;
      for (size_t k = 0; k < sa[i].ops.size(); ++k) {
        EXPECT_EQ(sa[i].ops[k].item, sb[i].ops[k].item);
        EXPECT_EQ(sa[i].ops[k].type, sb[i].ops[k].type);
      }
    }
  }
}

TEST(ReplayTest, RoundTripReproducesRunExactly) {
  core::SystemConfig config = SmallConfig();
  std::string rec_path = ::testing::TempDir() + "replay_roundtrip_rec.trace";
  std::string rep_path = ::testing::TempDir() + "replay_roundtrip_rep.trace";

  core::MetricsSnapshot recorded;
  trace::TraceFile rec_file;
  Capture({config, core::ProtocolKind::kOptimistic}, rec_path, 1, &recorded,
          &rec_file);

  std::shared_ptr<replay::WorkloadScript> script;
  Extract(rec_file, &script);
  EXPECT_EQ(script->num_sites(), 4);
  EXPECT_EQ(script->protocol(),
            static_cast<uint32_t>(core::ProtocolKind::kOptimistic));
  EXPECT_EQ(script->seed(), config.seed);
  EXPECT_GT(script->total_submissions(), 0u);
  EXPECT_GT(script->last_submit_time(), 0.0);

  core::MetricsSnapshot replayed;
  trace::TraceFile rep_file;
  Capture(replay::MakeReplaySpec(script, config,
                                 core::ProtocolKind::kOptimistic),
          rep_path, 1, &replayed, &rep_file);

  // The metrics: bit-identical, including the serializability verdict.
  EXPECT_EQ(Fp(replayed), Fp(recorded));
  ASSERT_EQ(recorded.serializable, 1);

  // The event stream: the replay's own trace is byte-identical to the
  // recording — every protocol decision, message, commit, and abort landed
  // at the same instant in the same order.
  replay::PointDiff d =
      replay::DiffPoint(rec_file.points[0], rep_file.points[0]);
  EXPECT_TRUE(d.identical) << d.summary;

  std::remove(rec_path.c_str());
  std::remove(rep_path.c_str());
}

TEST(ReplayTest, ReplayIsJobsInvariant) {
  core::SystemConfig config = SmallConfig();
  std::string rec_path = ::testing::TempDir() + "replay_jobs_rec.trace";
  core::MetricsSnapshot recorded;
  trace::TraceFile rec_file;
  Capture({config, core::ProtocolKind::kOptimistic}, rec_path, 1, &recorded,
          &rec_file);
  std::shared_ptr<replay::WorkloadScript> script;
  Extract(rec_file, &script);

  // The full what-if grid, serial vs. four workers: identical snapshots.
  std::vector<core::RunSpec> specs;
  for (core::ProtocolKind k : kAll) {
    specs.push_back(replay::MakeReplaySpec(script, config, k));
  }
  std::vector<core::MetricsSnapshot> serial =
      core::RunAll(specs, /*jobs=*/1, /*check_serializability=*/true);
  std::vector<core::MetricsSnapshot> parallel =
      core::RunAll(specs, /*jobs=*/4, /*check_serializability=*/true);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(Fp(serial[i]), Fp(parallel[i])) << "spec " << i;
  }
  std::remove(rec_path.c_str());
}

TEST(ReplayTest, WhatIfHoldsWorkloadFixedAcrossProtocols) {
  core::SystemConfig config = SmallConfig();
  std::string rec_path = ::testing::TempDir() + "replay_whatif_rec.trace";
  core::MetricsSnapshot recorded;
  trace::TraceFile rec_file;
  Capture({config, core::ProtocolKind::kOptimistic}, rec_path, 1, &recorded,
          &rec_file);
  std::shared_ptr<replay::WorkloadScript> script;
  Extract(rec_file, &script);

  for (core::ProtocolKind k : kAll) {
    SCOPED_TRACE(core::ProtocolKindName(k));
    std::string path = ::testing::TempDir() + "replay_whatif_" +
                       std::to_string(static_cast<int>(k)) + ".trace";
    core::MetricsSnapshot snap;
    trace::TraceFile file;
    Capture(replay::MakeReplaySpec(script, config, k), path, 1, &snap, &file);

    // Every what-if run stays serializable...
    EXPECT_EQ(snap.serializable, 1) << snap.serializability_why;
    // ...sees the exact recorded submission schedule (re-extracting the
    // script from the replay's own trace gives the original back)...
    std::shared_ptr<replay::WorkloadScript> re;
    Extract(file, &re);
    ExpectSameSchedule(*script, *re);
    // ...and measures the identical transaction population: with schedule
    // and warm-up fixed, the measured set cannot shift between protocols.
    EXPECT_EQ(snap.submitted, recorded.submitted);
    std::remove(path.c_str());
  }
  std::remove(rec_path.c_str());
}

TEST(ReplayTest, ReplayUnderDifferentTopologyAndFaults) {
  core::SystemConfig config = SmallConfig();
  std::string rec_path = ::testing::TempDir() + "replay_topo_rec.trace";
  core::MetricsSnapshot recorded;
  trace::TraceFile rec_file;
  Capture({config, core::ProtocolKind::kOptimistic}, rec_path, 1, &recorded,
          &rec_file);
  std::shared_ptr<replay::WorkloadScript> script;
  Extract(rec_file, &script);

  // Same workload, but now the four sites straddle two datacenters over a
  // slow backbone, with message loss on top: the what-if surface.
  core::SystemConfig geo = config;
  geo.topology.kind = net::TopologySpec::Kind::kGeo;
  geo.topology.datacenters = 2;
  geo.topology.metros_per_dc = 1;
  geo.topology.backbone_latency = 0.02;
  geo.fault.loss_prob = 0.01;
  std::vector<core::MetricsSnapshot> snaps = core::RunAll(
      {replay::MakeReplaySpec(script, geo, core::ProtocolKind::kOptimistic)},
      /*jobs=*/1, /*check_serializability=*/true);
  ASSERT_EQ(snaps.size(), 1u);
  EXPECT_EQ(snaps[0].serializable, 1) << snaps[0].serializability_why;
  EXPECT_GT(snaps[0].completed, 0u);
  // The harsher environment must actually change behavior — otherwise the
  // "what-if" ran the baseline again.
  EXPECT_NE(Fp(snaps[0]), Fp(recorded));
  std::remove(rec_path.c_str());
}

TEST(ReplayTest, MakeReplayConfigPinsScriptDictatedFields) {
  core::SystemConfig config = SmallConfig();
  std::string rec_path = ::testing::TempDir() + "replay_pins_rec.trace";
  core::MetricsSnapshot recorded;
  trace::TraceFile rec_file;
  Capture({config, core::ProtocolKind::kOptimistic}, rec_path, 1, &recorded,
          &rec_file);
  std::shared_ptr<replay::WorkloadScript> script;
  Extract(rec_file, &script);

  core::SystemConfig base;
  base.num_sites = 10;      // overridden: the script knows its sites
  base.total_txns = 99999;  // overridden: freeze at the recorded count
  base.seed = 777;          // overridden unless keep_seed
  core::SystemConfig pinned = replay::MakeReplayConfig(*script, base);
  EXPECT_EQ(pinned.num_sites, script->num_sites());
  EXPECT_EQ(pinned.total_txns, script->total_submissions());
  EXPECT_EQ(pinned.seed, script->seed());
  EXPECT_GT(pinned.tps, 0.0);

  core::SystemConfig kept =
      replay::MakeReplayConfig(*script, base, /*keep_seed=*/true);
  EXPECT_EQ(kept.seed, 777u);
  std::remove(rec_path.c_str());
}

TEST(ReplayTest, RejectsUnreplayableCaptures) {
  trace::PointTrace pt;
  pt.header.point_index = 0;
  pt.header.num_sites = 2;
  replay::WorkloadScript script;
  std::string error;

  // A v1 capture has no kSubmitOp access sets: refuse with a pointer to the
  // fix (re-capture), not a crash deep inside the run.
  EXPECT_FALSE(replay::WorkloadScript::FromPoint(pt, 1, &script, &error));
  EXPECT_NE(error.find("predates"), std::string::npos) << error;

  // A v2 point with no submissions is equally unreplayable.
  EXPECT_FALSE(replay::WorkloadScript::FromPoint(pt, 2, &script, &error));
  EXPECT_NE(error.find("no submissions"), std::string::npos) << error;

  // An orphan kSubmitOp (no preceding kSubmit) marks a mangled capture.
  trace::Record op;
  op.type = static_cast<uint8_t>(trace::EventType::kSubmitOp);
  op.txn = 5;
  pt.records.push_back(op);
  EXPECT_FALSE(replay::WorkloadScript::FromPoint(pt, 2, &script, &error));
  EXPECT_NE(error.find("precedes"), std::string::npos) << error;

  // A kSubmit announcing more ops than its kSubmitOp records deliver is a
  // truncated capture: replaying a partial access set would silently run a
  // different workload.
  pt.records.clear();
  trace::Record sub;
  sub.type = static_cast<uint8_t>(trace::EventType::kSubmit);
  sub.txn = 5;
  sub.site = 1;
  sub.aux = 3;  // announces 3 ops
  pt.records.push_back(sub);
  op.txn = 5;
  op.item = 7;
  pt.records.push_back(op);  // delivers only 1
  EXPECT_FALSE(replay::WorkloadScript::FromPoint(pt, 2, &script, &error));
  EXPECT_NE(error.find("truncated"), std::string::npos) << error;

  // Submit at a non-site endpoint (the graph site) is a corrupt record.
  pt.records.clear();
  sub.site = 2;  // num_sites == 2, so endpoint 2 is the graph site
  pt.records.push_back(sub);
  EXPECT_FALSE(replay::WorkloadScript::FromPoint(pt, 2, &script, &error));
  EXPECT_NE(error.find("non-site"), std::string::npos) << error;

  // Regressing submit times on one site: DelayUntil would silently clamp
  // the earlier instant to "now", reshaping the workload instead of
  // replaying it. The error must name the site and both timestamps.
  pt.records.clear();
  uint64_t next_txn = 100;
  auto submit_at = [&next_txn](db::SiteId site, double t) {
    trace::Record r;
    r.type = static_cast<uint8_t>(trace::EventType::kSubmit);
    r.txn = next_txn++;
    r.site = site;
    r.time = t;
    r.aux = 0;
    return r;
  };
  pt.records.push_back(submit_at(0, 0.25));
  pt.records.push_back(submit_at(1, 0.50));  // other site: independent clock
  pt.records.push_back(submit_at(0, 0.10));  // regression on site 0
  EXPECT_FALSE(replay::WorkloadScript::FromPoint(pt, 2, &script, &error));
  EXPECT_NE(error.find("site 0"), std::string::npos) << error;
  EXPECT_NE(error.find("regress"), std::string::npos) << error;
  EXPECT_NE(error.find("0.25"), std::string::npos) << error;
  EXPECT_NE(error.find("0.10"), std::string::npos) << error;

  // Equal timestamps are fine (same-instant submissions are legal), and
  // per-site monotonicity is judged per site, not across the merged stream.
  pt.records.clear();
  pt.records.push_back(submit_at(0, 0.30));
  pt.records.push_back(submit_at(1, 0.10));
  pt.records.push_back(submit_at(0, 0.30));
  pt.records.push_back(submit_at(1, 0.20));
  EXPECT_TRUE(replay::WorkloadScript::FromPoint(pt, 2, &script, &error))
      << error;
  EXPECT_EQ(script.total_submissions(), 4u);

  auto rejects = [&](std::vector<trace::Record> records,
                     const std::string& reason) {
    pt.records = std::move(records);
    EXPECT_FALSE(replay::WorkloadScript::FromPoint(pt, 2, &script, &error));
    EXPECT_NE(error.find(reason), std::string::npos) << error;
  };
  // The announced op count sizes the op list before any op arrives, so it
  // may not exceed the records left in the point (2^40 died in bad_alloc).
  sub.site = 1;
  sub.aux = 1ull << 40;
  rejects({sub, op}, "txn 5 announces 1099511627776 ops but only 1");

  // Submit instants are finite and not before the run starts, and an
  // update is a transaction that writes.
  sub.aux = 1;
  trace::Record late = sub;
  late.time = std::numeric_limits<double>::quiet_NaN();
  rejects({late, op}, "not a finite instant");
  late.time = -1;
  rejects({late, op}, "not a finite instant");
  trace::Record update = sub;
  update.flags = trace::kFlagUpdate;
  rejects({update, op}, "txn 5 is flagged update but writes nothing");
  trace::Record write = op;
  write.aux = 1;
  rejects({sub, write}, "txn 5 is flagged read-only but writes");
}

TEST(ReplayTest, RejectsATransactionThatNamesAnItemTwice) {
  // A captured script whose transaction names one item twice: its second
  // operation is rewritten to the item of its first. The generator never
  // draws that, and the lock manager takes the second request for the held
  // lock as a protocol bug, so extraction must refuse it, naming both.
  core::SystemConfig config = SmallConfig();
  const std::string path = ::testing::TempDir() + "replay_twice_rec.trace";
  core::MetricsSnapshot recorded;
  trace::TraceFile file;
  Capture({config, core::ProtocolKind::kLocking}, path, 1, &recorded, &file);
  std::remove(path.c_str());
  trace::PointTrace pt = file.points[0];
  const trace::Record* first = nullptr;
  trace::Record* second = nullptr;
  for (trace::Record& r : pt.records) {
    if (r.type != static_cast<uint8_t>(trace::EventType::kSubmitOp)) continue;
    if (first != nullptr && first->txn == r.txn) {
      second = &r;
      break;
    }
    first = &r;
  }
  ASSERT_NE(second, nullptr);
  ASSERT_NE(second->item, first->item);
  second->item = first->item;
  replay::WorkloadScript script;
  std::string error;
  EXPECT_FALSE(replay::WorkloadScript::FromPoint(pt, file.header.version,
                                                 &script, &error));
  const std::string named = "txn " + std::to_string(second->txn) +
                            " names item " + std::to_string(first->item) +
                            " twice";
  EXPECT_NE(error.find(named), std::string::npos) << error;
}

TEST(ReplayTest, FitsDatabaseChecksItemsOwnershipAndReplicas) {
  core::SystemConfig config = SmallConfig();  // 4 sites of 12 items
  std::string rec_path = ::testing::TempDir() + "replay_fits_rec.trace";
  core::MetricsSnapshot recorded;
  trace::TraceFile rec_file;
  Capture({config, core::ProtocolKind::kOptimistic}, rec_path, 1, &recorded,
          &rec_file);
  std::remove(rec_path.c_str());
  std::shared_ptr<replay::WorkloadScript> script;
  Extract(rec_file, &script);
  std::string error;
  EXPECT_TRUE(script->FitsDatabase(replay::MakeReplayConfig(*script, config),
                                   &error))
      << error;

  // Fewer items per site: the script names items past the database's end.
  core::SystemConfig smaller = config;
  smaller.workload.items_per_site = 6;
  EXPECT_FALSE(script->FitsDatabase(
      replay::MakeReplayConfig(*script, smaller), &error));
  EXPECT_NE(error.find("beyond the database's 24 items"), std::string::npos)
      << error;

  // More items per site: every item exists, but site 1's writes (items
  // 12-23) now belong to site 0 — the run would break the ownership rule.
  core::SystemConfig larger = config;
  larger.workload.items_per_site = 24;
  EXPECT_FALSE(script->FitsDatabase(
      replay::MakeReplayConfig(*script, larger), &error));
  EXPECT_NE(error.find("which site 0 owns"), std::string::npos) << error;
  larger.workload.relaxed_ownership = true;
  EXPECT_TRUE(script->FitsDatabase(replay::MakeReplayConfig(*script, larger),
                                   &error))
      << error;

  // Two replicas per item: a site holds its own items and its
  // predecessor's, and the full-replication script reads others.
  core::SystemConfig partial = config;
  partial.replication_degree = 2;
  EXPECT_FALSE(script->FitsDatabase(
      replay::MakeReplayConfig(*script, partial), &error));
  EXPECT_NE(error.find("of which it holds no replica"), std::string::npos)
      << error;
}

// -- mutation fuzz of the replay path -----------------------------------------

uint64_t Mix(uint64_t* s) {
  uint64_t z = (*s += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Flips one bit of `field`, or sets it to `edge` (truncated to its width).
template <typename T>
void MutateField(T* field, bool flip, uint64_t draw, uint64_t edge) {
  if (flip) {
    const uint64_t bit = uint64_t{1} << (draw % (8 * sizeof(T)));
    *field = static_cast<T>(*field ^ bit);
  } else {
    *field = static_cast<T>(edge);
  }
}

TEST(ReplayMutationFuzz, SeededMutantsFailWithAReasonOrReplay) {
  // A small v2 capture: 3 sites of 6 items, 40 transactions.
  core::SystemConfig config;
  config.num_sites = 3;
  config.workload.items_per_site = 6;
  config.tps = 60;
  config.total_txns = 40;
  config.warmup_per_site = 1;
  config.seed = 17;
  config.Normalize();
  const std::string path = ::testing::TempDir() + "replay_fuzz_rec.trace";
  core::MetricsSnapshot recorded;
  trace::TraceFile file;
  Capture({config, core::ProtocolKind::kPessimistic}, path, 1, &recorded,
          &file);
  std::remove(path.c_str());
  const trace::PointTrace& base = file.points[0];
  // The kSubmit and the kSubmitOp records, drawn from evenly: a submit has
  // several op records, and only a submit's time and site are read.
  std::vector<size_t> targets[2];
  for (size_t i = 0; i < base.records.size(); ++i) {
    const auto type = static_cast<trace::EventType>(base.records[i].type);
    if (type == trace::EventType::kSubmit) targets[0].push_back(i);
    if (type == trace::EventType::kSubmitOp) targets[1].push_back(i);
  }
  ASSERT_EQ(targets[0].size(), 40u);
  ASSERT_GT(targets[1].size(), 40u);

  const uint64_t kEdges[] = {0,      1,          2,          3,
                             12,     13,         17,         18,
                             0xFF,   0xFFFF,     0x7FFFFFFF, 0xFFFFFFFF,
                             1ull << 40, ~0ull};
  const double kTimes[] = {0.0,
                           -0.0,
                           -1.0,
                           1e-300,
                           1e300,
                           std::numeric_limits<double>::max(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()};
  const char* kFields[] = {"txn", "aux", "item", "site", "type", "flags",
                           "time"};
  uint64_t s = 20261018;
  int rejected = 0, replayed = 0;
  for (int k = 0; k < 400; ++k) {
    trace::PointTrace pt = base;
    const std::vector<size_t>& pool = targets[Mix(&s) % 2];
    const size_t at = pool[Mix(&s) % pool.size()];
    trace::Record& r = pt.records[at];
    const int field = static_cast<int>(Mix(&s) % 7);
    const bool flip = Mix(&s) % 2 == 0;
    const uint64_t draw = Mix(&s);
    const uint64_t edge = kEdges[draw % std::size(kEdges)];
    switch (field) {
      case 0: MutateField(&r.txn, flip, draw, edge); break;
      case 1: MutateField(&r.aux, flip, draw, edge); break;
      case 2: MutateField(&r.item, flip, draw, edge); break;
      case 3: MutateField(&r.site, flip, draw, edge); break;
      case 4: MutateField(&r.type, flip, draw, edge); break;
      case 5: MutateField(&r.flags, flip, draw, edge); break;
      default: {
        uint64_t bits = trace::BitsFromDouble(r.time);
        MutateField(&bits, flip, draw, 0);
        r.time = flip ? trace::DoubleFromBits(bits)
                      : kTimes[draw % std::size(kTimes)];
        break;
      }
    }
    const std::string what = "mutant " + std::to_string(k) + ": record " +
                             std::to_string(at) + " " + kFields[field] +
                             (flip ? " bit flip" : " edge value");
    SCOPED_TRACE(what);
    replay::WorkloadScript script;
    std::string error;
    if (!replay::WorkloadScript::FromPoint(pt, file.header.version, &script,
                                           &error) ||
        !script.FitsDatabase(replay::MakeReplayConfig(script, config),
                             &error)) {
      EXPECT_FALSE(error.empty()) << "rejected without a reason";
      ++rejected;
      continue;
    }
    const core::ProtocolKind kind = kAll[k % kAll.size()];
    auto shared = std::make_shared<replay::WorkloadScript>(std::move(script));
    std::vector<core::MetricsSnapshot> snaps = core::RunAll(
        {replay::MakeReplaySpec(shared, config, kind)}, /*jobs=*/1);
    ASSERT_EQ(snaps.size(), 1u) << core::ProtocolKindName(kind);
    ++replayed;
  }
  // Both outcomes occur, or the mutations are not reaching the decisions
  // they are meant to probe.
  EXPECT_GT(rejected, 0);
  EXPECT_GT(replayed, 0);
}

}  // namespace
}  // namespace lazyrep
