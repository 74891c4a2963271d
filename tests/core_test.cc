// Unit tests for the core layer (src/core): configuration presets, replica
// placement, the generated workload, the MVSG serializability checker,
// metrics accounting, the analytic contention model, the flag table, the
// bench options and the strict number parser.

#include <algorithm>
#include <cfloat>
#include <climits>
#include <cstdint>
#include <cstdlib>
#include <random>
#include <sstream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/contention_model.h"
#include "core/config.h"
#include "core/history.h"
#include "core/metrics.h"
#include "core/study.h"
#include "core/workload_source.h"
#include "hw/disk.h"
#include "rg/replication_graph.h"

namespace lazyrep::core {
namespace {

// ---------------------------------------------------------------------------
// SystemConfig
// ---------------------------------------------------------------------------

TEST(ConfigTest, Oc3PresetMatchesTable1) {
  SystemConfig c = SystemConfig::Oc3();
  EXPECT_EQ(c.num_sites, 100);
  EXPECT_DOUBLE_EQ(c.network.latency, 0.004);
  EXPECT_DOUBLE_EQ(c.network.bandwidth_bps, 155e6);
  EXPECT_EQ(c.total_items(), 2000);
  EXPECT_DOUBLE_EQ(c.timeout, 0.5);
  EXPECT_EQ(c.graph_queue_bound, 300u);
  // The Table 1 values no study varies are constants.
  EXPECT_DOUBLE_EQ(kCpuMips, 300.0);
  EXPECT_EQ(kItemBytes, 1024u);
  EXPECT_DOUBLE_EQ(rg::kAddInstr, 2000);
  EXPECT_DOUBLE_EQ(rg::kCheckInstrPerEdge, 117);
  const hw::DiskParams disk;
  EXPECT_DOUBLE_EQ(disk.latency, 0.0097);
  EXPECT_DOUBLE_EQ(disk.transfer_rate, 40e6);
  EXPECT_EQ(disk.disks_per_site, 10);
  EXPECT_DOUBLE_EQ(disk.buffer_miss_ratio, 0.10);
  EXPECT_DOUBLE_EQ(c.workload.read_only_fraction, 0.90);
  EXPECT_DOUBLE_EQ(c.workload.write_op_fraction, 0.30);
}

TEST(ConfigTest, Oc1PresetChangesNetworkOnly) {
  SystemConfig oc3 = SystemConfig::Oc3();
  SystemConfig oc1 = SystemConfig::Oc1();
  EXPECT_DOUBLE_EQ(oc1.network.latency, 0.1);
  EXPECT_DOUBLE_EQ(oc1.network.bandwidth_bps, 55e6);
  EXPECT_EQ(oc1.num_sites, oc3.num_sites);
  EXPECT_EQ(oc1.total_items(), oc3.total_items());
}

TEST(ConfigTest, Oc1StarShrinksTo20SitesAnd400Items) {
  SystemConfig c = SystemConfig::Oc1Star();
  EXPECT_EQ(c.num_sites, 20);
  EXPECT_EQ(c.total_items(), 400);
  EXPECT_DOUBLE_EQ(c.network.latency, 0.1);
}

TEST(ConfigTest, VsNFixesLocTps) {
  for (int sites : {2, 40, 140}) {
    SystemConfig c = SystemConfig::VsN(sites);
    EXPECT_EQ(c.num_sites, sites);
    EXPECT_DOUBLE_EQ(c.loc_tps(), 15.0);
    EXPECT_EQ(c.total_items(), 20 * sites);
  }
}

TEST(ConfigTest, VsNFixedSplitsDatabase) {
  SystemConfig c = SystemConfig::VsNFixed(40, 300, 2000);
  EXPECT_EQ(c.num_sites, 40);
  EXPECT_DOUBLE_EQ(c.tps, 300);
  EXPECT_EQ(c.workload.items_per_site, 50);
  EXPECT_DOUBLE_EQ(c.loc_tps(), 7.5);
}

TEST(ConfigTest, PrimarySiteMapping) {
  SystemConfig c = SystemConfig::Oc1Star();  // 20 items per site
  EXPECT_EQ(c.PrimarySite(0), 0);
  EXPECT_EQ(c.PrimarySite(19), 0);
  EXPECT_EQ(c.PrimarySite(20), 1);
  EXPECT_EQ(c.PrimarySite(399), 19);
}

TEST(ConfigTest, FullReplicationHasReplicaEverywhere) {
  SystemConfig c = SystemConfig::Oc1Star();
  for (db::SiteId s = 0; s < 20; ++s) {
    EXPECT_TRUE(c.HasReplica(137, s));
  }
  EXPECT_EQ(c.replicas_per_item(), 20);
}

TEST(ConfigTest, PartialReplicationPlacesKConsecutive) {
  SystemConfig c = SystemConfig::Oc1Star();
  c.replication_degree = 3;
  // Item 0's primary is site 0: replicas at 0, 1, 2 only.
  EXPECT_TRUE(c.HasReplica(0, 0));
  EXPECT_TRUE(c.HasReplica(0, 1));
  EXPECT_TRUE(c.HasReplica(0, 2));
  EXPECT_FALSE(c.HasReplica(0, 3));
  EXPECT_FALSE(c.HasReplica(0, 19));
  // Wrap-around: item owned by site 19 replicates at 19, 0, 1.
  EXPECT_TRUE(c.HasReplica(19 * 20, 19));
  EXPECT_TRUE(c.HasReplica(19 * 20, 0));
  EXPECT_TRUE(c.HasReplica(19 * 20, 1));
  EXPECT_FALSE(c.HasReplica(19 * 20, 2));
  EXPECT_EQ(c.replicas_per_item(), 3);
}

TEST(ConfigTest, DegreeAtOrBeyondSitesIsFullReplication) {
  SystemConfig c = SystemConfig::Oc1Star();  // 20 sites
  for (int degree : {20, 22}) {
    c.replication_degree = degree;
    EXPECT_TRUE(c.full_replication()) << degree;
    EXPECT_EQ(c.replicas_per_item(), 20) << degree;
    EXPECT_NE(FormatConfigTable(c).find("full (all sites)"),
              std::string::npos)
        << degree;
  }
  c.replication_degree = 19;
  EXPECT_FALSE(c.full_replication());
  EXPECT_NE(FormatConfigTable(c).find("partial"), std::string::npos);
}

TEST(ConfigTest, FormatTableMentionsKeyParameters) {
  std::string table = FormatConfigTable(SystemConfig::Oc3());
  EXPECT_NE(table.find("100"), std::string::npos);   // sites
  EXPECT_NE(table.find("2000"), std::string::npos);  // |DB| and add cost
  EXPECT_NE(table.find("117"), std::string::npos);   // cycle-check cost
  EXPECT_NE(table.find("300"), std::string::npos);   // MIPS / queue bound
}

// Replicas name their writer in 4 bytes, so a run may issue at most
// db::kMaxTxnId transaction ids; the flags stop there, and Validate guards
// configurations built in code.
TEST(ConfigTest, ValidateBoundsTxnsByWriterIds) {
  SystemConfig c = SystemConfig::Oc3();
  std::string why;
  c.total_txns = db::kMaxTxnId;
  EXPECT_TRUE(c.Validate(ProtocolKind::kOptimistic, &why)) << why;
  c.total_txns = db::kMaxTxnId + 1;
  EXPECT_FALSE(c.Validate(ProtocolKind::kOptimistic, &why));
  EXPECT_EQ(why,
            "total_txns must be at most 4294967295, the 4-byte writer-id "
            "bound (got 4294967296)");
}

// Item ids and store sizes are ints: a database whose items_per_site x
// num_sites overflows one is rejected by name instead of wrapping. Only the
// config is checked; no System (and no store) is built.
TEST(ConfigTest, ValidateBoundsItemCountByInt) {
  SystemConfig c = SystemConfig::Oc3();
  std::string why;
  c.num_sites = 1;
  c.workload.items_per_site = INT_MAX;
  EXPECT_TRUE(c.Validate(ProtocolKind::kOptimistic, &why)) << why;
  c.num_sites = 2;
  c.workload.items_per_site = 1 << 30;  // INT_MAX + 1 items
  EXPECT_FALSE(c.Validate(ProtocolKind::kOptimistic, &why));
  EXPECT_EQ(why,
            "items_per_site x num_sites must be at most 2147483647, the int "
            "item-count bound (got 2147483648)");
}

TEST(ConfigTest, ProtocolNames) {
  EXPECT_STREQ(ProtocolKindName(ProtocolKind::kLocking), "Locking");
  EXPECT_STREQ(ProtocolKindName(ProtocolKind::kPessimistic), "Pessimistic");
  EXPECT_STREQ(ProtocolKindName(ProtocolKind::kOptimistic), "Optimistic");
}

// Full replication is replicas_per_item() == num_sites, whichever way the
// config says it: degree 0, degree #sites and any degree beyond draw the
// same workload, op for op and arrival for arrival.
TEST(WorkloadSourceTest, DegreeAtOrBeyondSitesDrawsTheFullReplicationWorkload) {
  SystemConfig full = SystemConfig::Oc1Star();
  // Three ownable items per site: updates exhaust their write pool and
  // fall back to reads.
  full.workload.items_per_site = 3;
  full.workload.write_op_fraction = 0.8;
  full.workload.read_only_fraction = 0.5;
  std::vector<SystemConfig> configs(3, full);
  configs[1].replication_degree = full.num_sites;
  configs[2].replication_degree = full.num_sites + 2;
  std::vector<GeneratedWorkload> sources;
  std::vector<sim::RandomStream> rngs;
  for (const SystemConfig& c : configs) {
    sources.emplace_back(c);
    rngs.emplace_back(7);
  }
  db::TxnId id = 0;
  for (int round = 0; round < 50; ++round) {
    for (db::SiteId s = 0; s < full.num_sites; ++s) {
      ++id;
      WorkloadSource::Arrival first = sources[0].NextArrival(s, &rngs[0]);
      txn::Transaction expect = sources[0].NextTxn(id, s, &rngs[0]);
      for (size_t k = 1; k < sources.size(); ++k) {
        WorkloadSource::Arrival next = sources[k].NextArrival(s, &rngs[k]);
        EXPECT_EQ(next.at, first.at) << "degree "
                                     << configs[k].replication_degree;
        txn::Transaction t = sources[k].NextTxn(id, s, &rngs[k]);
        ASSERT_EQ(t.num_ops(), expect.num_ops())
            << "degree " << configs[k].replication_degree << ", txn " << id;
        for (int i = 0; i < t.num_ops(); ++i) {
          EXPECT_EQ(t.ops[i].item, expect.ops[i].item);
          EXPECT_EQ(t.ops[i].type, expect.ops[i].type);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// HistoryRecorder / MVSG
// ---------------------------------------------------------------------------

db::Timestamp Ts(double t, db::TxnId id) { return db::Timestamp{t, id}; }

TEST(HistoryTest, SerialExecutionPasses) {
  HistoryRecorder h;
  h.RecordCommit(1, Ts(1, 1), {10});
  h.RecordRead(2, 10, Ts(1, 1));
  h.RecordCommit(2, Ts(2, 2), {11});
  h.RecordRead(3, 11, Ts(2, 2));
  h.RecordCommit(3, Ts(3, 3), {});
  EXPECT_TRUE(h.CheckOneCopySerializable());
}

TEST(HistoryTest, ClassicWriteSkewStyleCycleFails) {
  HistoryRecorder h;
  // T1 reads x's initial version then writes y; T2 reads y's initial version
  // then writes x: T1 < T2 (rw on x... actually on y) and T2 < T1 — cycle.
  h.RecordRead(1, /*item=*/10, db::kZeroTimestamp);  // T1 reads x0
  h.RecordRead(2, /*item=*/11, db::kZeroTimestamp);  // T2 reads y0
  h.RecordCommit(1, Ts(1, 1), {11});                 // T1 writes y
  h.RecordCommit(2, Ts(2, 2), {10});                 // T2 writes x
  std::string why;
  EXPECT_FALSE(h.CheckOneCopySerializable(&why));
  EXPECT_NE(why.find("cycle"), std::string::npos);
}

TEST(HistoryTest, StaleReadOfOldVersionIsFineAlone) {
  HistoryRecorder h;
  h.RecordCommit(1, Ts(1, 1), {10});
  h.RecordCommit(2, Ts(2, 2), {10});
  // Reader saw version 1 even though version 2 exists: serializable as
  // "reader before txn 2".
  h.RecordRead(3, 10, Ts(1, 1));
  h.RecordCommit(3, Ts(3, 3), {});
  EXPECT_TRUE(h.CheckOneCopySerializable());
}

TEST(HistoryTest, StaleReadPlusWrBackEdgeFails) {
  HistoryRecorder h;
  h.RecordCommit(1, Ts(1, 1), {10});       // writes x (v1)
  h.RecordCommit(2, Ts(2, 2), {10, 11});   // writes x (v2) and y (v2)
  // Reader sees the OLD x but the NEW y: must be both before and after 2.
  h.RecordRead(3, 10, Ts(1, 1));
  h.RecordRead(3, 11, Ts(2, 2));
  h.RecordCommit(3, Ts(3, 3), {});
  EXPECT_FALSE(h.CheckOneCopySerializable());
}

TEST(HistoryTest, AbortedReadersAreIgnored) {
  HistoryRecorder h;
  h.RecordCommit(1, Ts(1, 1), {10});
  h.RecordCommit(2, Ts(2, 2), {10, 11});
  // Same inconsistent read pattern as above — but txn 3 never commits.
  h.RecordRead(3, 10, Ts(1, 1));
  h.RecordRead(3, 11, Ts(2, 2));
  EXPECT_TRUE(h.CheckOneCopySerializable());
}

TEST(HistoryTest, WwOrderIsTimestampOrder) {
  HistoryRecorder h;
  // Committed in id order but timestamps reversed: version order follows
  // timestamps, and a reader of the ts-newest version is consistent.
  h.RecordCommit(2, Ts(1, 2), {10});
  h.RecordCommit(1, Ts(2, 1), {10});
  h.RecordRead(3, 10, Ts(2, 1));
  h.RecordCommit(3, Ts(3, 3), {});
  EXPECT_TRUE(h.CheckOneCopySerializable());
  EXPECT_EQ(h.committed_count(), 3u);
  EXPECT_EQ(h.reads_recorded(), 1u);
}

TEST(HistoryTest, CycleReportNamesEachEdge) {
  HistoryRecorder h;
  h.RecordRead(1, 10, db::kZeroTimestamp);
  h.RecordRead(2, 11, db::kZeroTimestamp);
  h.RecordCommit(1, Ts(1, 1), {11});
  h.RecordCommit(2, Ts(2, 2), {10});
  std::string why;
  ASSERT_FALSE(h.CheckOneCopySerializable(&why));
  EXPECT_EQ(why, "MVSG cycle: 1 -rw(x10)-> 2 -rw(x11)-> 1");
}

// The checker before its flat logs: hash maps keyed by transaction id, and
// an rw edge from each committed read to every newer writer of the item.
// The differential test below holds HistoryRecorder to its verdicts.
class QuadraticMvsg {
 public:
  void RecordRead(db::TxnId reader, db::ItemId item, db::Timestamp version) {
    item_reads_[item].push_back({reader, version});
  }

  void RecordCommit(db::TxnId txn, db::Timestamp ts,
                    const std::vector<db::ItemId>& write_set) {
    committed_[txn] = ts;
    for (db::ItemId item : write_set) writers_[item].push_back(ts);
  }

  bool Serializable() const {
    std::unordered_map<db::TxnId, std::unordered_set<db::TxnId>> adj;
    auto add_edge = [&adj](db::TxnId from, db::TxnId to) {
      if (from == to) return;
      adj[from].insert(to);
      adj.try_emplace(to);
    };
    for (const auto& [txn, ts] : committed_) adj.try_emplace(txn);
    for (const auto& [item, tss] : writers_) {
      std::vector<db::Timestamp> sorted = tss;
      std::sort(sorted.begin(), sorted.end());
      for (size_t i = 1; i < sorted.size(); ++i) {
        add_edge(sorted[i - 1].txn, sorted[i].txn);
      }
    }
    for (const auto& [item, reads] : item_reads_) {
      auto wit = writers_.find(item);
      for (const auto& [reader, version] : reads) {
        if (!committed_.contains(reader)) continue;
        if (version.txn != db::kNoTxn) add_edge(version.txn, reader);
        if (wit == writers_.end()) continue;
        for (const db::Timestamp& w : wit->second) {
          if (w > version) add_edge(reader, w.txn);
        }
      }
    }
    enum : uint8_t { kWhite, kGray, kBlack };
    std::unordered_map<db::TxnId, uint8_t> color;
    for (const auto& [start, _] : adj) {
      if (color[start] != kWhite) continue;
      std::vector<std::pair<db::TxnId,
                            std::unordered_set<db::TxnId>::const_iterator>>
          stack;
      color[start] = kGray;
      stack.push_back({start, adj.at(start).begin()});
      while (!stack.empty()) {
        auto& [node, it] = stack.back();
        if (it == adj.at(node).end()) {
          color[node] = kBlack;
          stack.pop_back();
          continue;
        }
        db::TxnId next = *it++;
        if (color[next] == kGray) return false;
        if (color[next] == kWhite) {
          color[next] = kGray;
          stack.push_back({next, adj.at(next).begin()});
        }
      }
    }
    return true;
  }

  /// True when the MVSG has the edge `from -kind(x item)-> to`: for ww,
  /// any two writers of the item in timestamp order.
  bool HasEdge(db::TxnId from, db::TxnId to, const std::string& kind,
               db::ItemId item) const {
    if (from == to || !committed_.contains(from) ||
        !committed_.contains(to)) {
      return false;
    }
    auto reads = item_reads_.find(item);
    auto writers = writers_.find(item);
    auto wrote = [&](db::TxnId txn, db::Timestamp* ts) {
      if (writers == writers_.end()) return false;
      for (const db::Timestamp& w : writers->second) {
        if (w.txn == txn) *ts = w;
      }
      return ts->txn == txn;
    };
    db::Timestamp from_ts;
    db::Timestamp to_ts;
    if (kind == "ww") {
      return wrote(from, &from_ts) && wrote(to, &to_ts) && from_ts < to_ts;
    }
    if (reads == item_reads_.end()) return false;
    for (const auto& [reader, version] : reads->second) {
      if (kind == "wr" && reader == to && version.txn == from) return true;
      if (kind == "rw" && reader == from && wrote(to, &to_ts) &&
          to_ts > version) {
        return true;
      }
    }
    return false;
  }

 private:
  std::unordered_map<db::TxnId, db::Timestamp> committed_;
  std::unordered_map<db::ItemId, std::vector<db::Timestamp>> writers_;
  std::unordered_map<db::ItemId,
                     std::vector<std::pair<db::TxnId, db::Timestamp>>>
      item_reads_;
};

// Seeded random histories of at most 40 transactions over at most 8 items.
// Commit times come from a few instants, so equal times ordered by id are
// common; a fifth of the transactions abort; a transaction often writes an
// item it read; reads see the initial version or repeat an earlier read. A
// third of the histories read the newest committed version older than the
// reader, so they are serializable. A third do that except that one read in
// eight sees an older version: its rw edge to the first newer writer points
// back in time and closes a cycle only through the rest of the history. The
// last third read any version, of a writer that aborted or commits later
// too, so they are mostly cyclic.
TEST(HistoryTest, NearLinearCheckMatchesQuadraticModel) {
  std::mt19937_64 rng(20260418);
  auto below = [&rng](uint64_t n) { return rng() % n; };
  enum Mode { kConsistent, kStale, kAny };
  int serializable = 0;
  int cyclic = 0;
  for (int history = 0; history < 2000; ++history) {
    SCOPED_TRACE(testing::Message() << "history " << history);
    const auto txns = static_cast<db::TxnId>(1 + below(40));
    const auto items = static_cast<db::ItemId>(1 + below(8));
    const auto mode = static_cast<Mode>(below(3));
    struct Txn {
      db::Timestamp ts;
      bool commits = false;
      std::vector<db::ItemId> writes;
    };
    std::vector<Txn> t(txns + 1);
    for (db::TxnId id = 1; id <= txns; ++id) {
      t[id].ts = Ts(static_cast<double>(below(txns / 3 + 2)), id);
      t[id].commits = below(5) != 0;
      for (db::ItemId item = 0; item < items; ++item) {
        if (below(3) == 0) t[id].writes.push_back(item);
      }
    }
    auto version_for = [&](db::TxnId reader, db::ItemId item) {
      std::vector<db::Timestamp> older = {db::kZeroTimestamp};
      db::Timestamp any = db::kZeroTimestamp;
      for (db::TxnId w = 1; w <= txns; ++w) {
        if (std::count(t[w].writes.begin(), t[w].writes.end(), item) == 0) {
          continue;
        }
        if (t[w].commits && t[w].ts < t[reader].ts) older.push_back(t[w].ts);
        if (below(3) == 0) any = t[w].ts;
      }
      std::sort(older.begin(), older.end());
      if (mode == kAny) return any;
      if (mode == kStale && older.size() > 1 && below(8) == 0) {
        return older[below(older.size() - 1)];
      }
      return older.back();
    };
    // Read items first, so that a read-then-write is in the write set
    // before any version is chosen.
    std::vector<std::pair<db::TxnId, db::ItemId>> reads;
    for (db::TxnId id = 1; id <= txns; ++id) {
      const uint64_t n = below(5);
      for (uint64_t k = 0; k < n; ++k) {
        const bool repeat = !reads.empty() && below(6) == 0;
        const db::ItemId item = repeat ? reads.back().second
                                       : static_cast<db::ItemId>(below(items));
        reads.push_back({id, item});
        if (below(3) == 0) t[id].writes.push_back(item);
      }
    }
    HistoryRecorder h;
    QuadraticMvsg model;
    for (const auto& [id, item] : reads) {
      const db::Timestamp v = version_for(id, item);
      h.RecordRead(id, item, v);
      model.RecordRead(id, item, v);
    }
    for (db::TxnId id = 1; id <= txns; ++id) {
      std::sort(t[id].writes.begin(), t[id].writes.end());
      t[id].writes.erase(
          std::unique(t[id].writes.begin(), t[id].writes.end()),
          t[id].writes.end());
      if (!t[id].commits) continue;
      h.RecordCommit(id, t[id].ts, t[id].writes);
      model.RecordCommit(id, t[id].ts, t[id].writes);
    }
    std::string why;
    const bool verdict = h.CheckOneCopySerializable(&why);
    ASSERT_EQ(verdict, model.Serializable()) << why;
    if (verdict) {
      ++serializable;
      continue;
    }
    ++cyclic;
    // The reported cycle is made of real MVSG edges and closes on itself.
    std::istringstream in(why);
    std::string word;
    db::TxnId first = 0;
    db::TxnId from = 0;
    ASSERT_TRUE(in >> word >> word >> first) << why;
    ASSERT_EQ(word, "cycle:");
    from = first;
    int edges = 0;
    while (in >> word) {
      ASSERT_TRUE(word.size() > 8 && word[0] == '-' &&
                  word.compare(3, 2, "(x") == 0 &&
                  word.compare(word.size() - 3, 3, ")->") == 0)
          << why;
      const std::string kind = word.substr(1, 2);
      const auto item = static_cast<db::ItemId>(std::stoul(word.substr(5)));
      db::TxnId to = 0;
      ASSERT_TRUE(in >> to) << why;
      EXPECT_TRUE(model.HasEdge(from, to, kind, item))
          << why << ": no edge " << from << " -" << kind << "(x" << item
          << ")-> " << to;
      from = to;
      ++edges;
    }
    EXPECT_GE(edges, 2) << why;
    EXPECT_EQ(from, first) << why;
  }
  // Both verdicts are well represented.
  EXPECT_GT(serializable, 400);
  EXPECT_GT(cyclic, 400);
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

txn::Transaction MakeTxn(db::TxnId id, bool update, bool measured) {
  txn::Transaction t;
  t.id = id;
  t.is_update = update;
  t.measured = measured;
  t.submit_time = 1.0;
  t.commit_time = 1.5;
  t.terminal_time = 2.5;
  return t;
}

TEST(MetricsTest, CountsAndResponseTimes) {
  Metrics m;
  txn::Transaction ro = MakeTxn(1, false, true);
  txn::Transaction up = MakeTxn(2, true, true);
  m.OnSubmit(ro);
  m.OnSubmit(up);
  m.OnCommit(ro);
  m.OnCommit(up);
  m.OnComplete(up);
  m.OnAbort(MakeTxn(3, false, true));
  const MetricsSnapshot& s = m.snapshot();
  EXPECT_EQ(s.submitted, 2u);
  EXPECT_EQ(s.committed, 2u);
  EXPECT_EQ(s.completed, 1u);
  EXPECT_EQ(s.aborted, 1u);
  EXPECT_DOUBLE_EQ(s.read_only_response.Mean(), 0.5);
  EXPECT_DOUBLE_EQ(s.update_response.Mean(), 0.5);
  EXPECT_DOUBLE_EQ(s.commit_to_complete.Mean(), 1.0);
}

TEST(MetricsTest, UnmeasuredTransactionsExcluded) {
  Metrics m;
  txn::Transaction warm = MakeTxn(1, true, false);
  m.OnSubmit(warm);
  m.OnCommit(warm);
  m.OnComplete(warm);
  EXPECT_EQ(m.snapshot().submitted, 0u);
  EXPECT_EQ(m.snapshot().completed, 0u);
}

TEST(MetricsTest, ToStringIsPopulated) {
  Metrics m;
  m.OnSubmit(MakeTxn(1, false, true));
  MetricsSnapshot s = m.snapshot();
  s.duration = 2.0;
  s.completed_tps = 42.5;
  std::string text = s.ToString();
  EXPECT_NE(text.find("submitted 1"), std::string::npos);
  EXPECT_NE(text.find("42.5"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Analytic contention model (Appendix Theorem 1)
// ---------------------------------------------------------------------------

TEST(ContentionModelTest, BetaFormula) {
  analysis::ContentionParams p;
  p.p_update = 0.1;
  p.p_write = 0.3;
  p.num_ops = 10;
  p.update_lifetime = 0.05;
  p.read_only_lifetime = 0.02;
  // beta = 0.1*0.3*100*((1 + 0.1 - 0.03)*0.05 + 0.9*0.02)
  double expected = 0.1 * 0.3 * 100 * ((1.07) * 0.05 + 0.9 * 0.02);
  EXPECT_NEAR(analysis::ContentionBeta(p), expected, 1e-12);
}

TEST(ContentionModelTest, LinearInTpsOverDb) {
  analysis::ContentionParams p;
  double e1 = analysis::ExpectedContention(p, 1000, 2000);
  double e2 = analysis::ExpectedContention(p, 2000, 2000);
  double e3 = analysis::ExpectedContention(p, 1000, 4000);
  EXPECT_NEAR(e2, 2 * e1, 1e-12);
  EXPECT_NEAR(e3, e1 / 2, 1e-12);
}

TEST(ContentionModelTest, WaitProbabilityBounded) {
  analysis::ContentionParams p;
  EXPECT_GE(analysis::ApproxWaitProbability(p, 1e9, 10), 0.99);
  EXPECT_NEAR(analysis::ApproxWaitProbability(p, 0, 2000), 0.0, 1e-12);
}

// ---------------------------------------------------------------------------
// Flags and BenchOptions
// ---------------------------------------------------------------------------

TEST(FlagsTest, AppliesFlagsInArgvOrder) {
  const char* argv[] = {"tool", "in.trace", "--n=3", "--on", "--n=5"};
  std::string path;
  int n = 0;
  bool on = false;
  Flags()
      .Positional("FILE", 1, 1,
                  [&path](std::string_view text, std::string*) {
                    path = text;
                    return true;
                  },
                  "input")
      .Number("--n=N", &n, 0, 10, "a number")
      .Switch("--on", &on, "a switch")
      .Parse(5, argv);
  EXPECT_EQ(path, "in.trace");
  EXPECT_EQ(n, 5);
  EXPECT_TRUE(on);
}

TEST(FlagsTest, PositionalCountIsChecked) {
  auto table = [] {
    return Flags().Positional(
        "A B", 2, 2, [](std::string_view, std::string*) { return true; },
        "two files");
  };
  const char* extra[] = {"tool", "a", "b", "c"};
  EXPECT_EXIT(table().Parse(4, extra), ::testing::ExitedWithCode(2),
              "unexpected argument 'c'\nusage: tool A B\n");
  const char* missing[] = {"tool", "a"};
  EXPECT_EXIT(table().Parse(2, missing), ::testing::ExitedWithCode(2),
              "want 2 arguments \\(A B\\), got 1");
  const char* none[] = {"tool", "a"};
  EXPECT_EXIT(Flags().Parse(2, none), ::testing::ExitedWithCode(2),
              "unexpected argument 'a'");
}

TEST(FlagsTest, HelpPrintsUsageAndExitsZero) {
  const char* argv[] = {"tool", "--help"};
  int n = 0;
  EXPECT_EXIT(
      Flags(1).Number("--n=N", &n, 0, 10, "a number").Parse(2, argv),
      ::testing::ExitedWithCode(0), "");
  EXPECT_EQ(Flags().Number("--n=N", &n, 0, 10, "a number").UsageLine("tool"),
            "usage: tool [--n=N]\n");
}

TEST(FlagsTest, BadInputExitsWithTheBinarysCode) {
  // lazyrep_cli exits 1 on bad input: its 2 means a serializability
  // violation.
  const char* argv[] = {"tool", "--n=11"};
  int n = 0;
  EXPECT_EXIT(Flags(1).Number("--n=N", &n, 0, 10, "a number").Parse(2, argv),
              ::testing::ExitedWithCode(1),
              "tool: bad value for --n: '11' \\(want 0 to 10\\)\n"
              "usage: tool \\[--n=N\\]");
}

TEST(BenchOptionsTest, ParsesFlags) {
  const char* argv[] = {"bench",      "--txns=1234", "--points=3",
                        "--figure=7", "--seed=9",    "--protocols=lo",
                        "--jobs=4"};
  BenchOptions opt;
  opt.FlagTable(kBenchStudy, {7}).Parse(7, argv);
  EXPECT_EQ(opt.txns, 1234u);
  EXPECT_EQ(opt.max_points, 3);
  EXPECT_EQ(opt.figure, 7);
  EXPECT_EQ(opt.seed, 9u);
  EXPECT_EQ(opt.jobs, 4);
  ASSERT_EQ(opt.protocols.size(), 2u);
  EXPECT_EQ(opt.protocols[0], ProtocolKind::kLocking);
  EXPECT_EQ(opt.protocols[1], ProtocolKind::kOptimistic);
}

TEST(BenchOptionsTest, JobsDefaultsToAllCores) {
  const char* argv[] = {"bench"};
  BenchOptions opt;
  opt.FlagTable(kBenchJobs).Parse(1, argv);
  EXPECT_EQ(opt.jobs, 0);  // 0 = hardware_concurrency at sweep time
}

TEST(BenchOptionsTest, UnknownFlagExitsTwoNamingIt) {
  // A typo must not silently run the default sweep.
  const char* argv[] = {"bench", "--quick", "--txn=50"};
  EXPECT_EXIT(BenchOptions().FlagTable(kBenchStudy, {1}).Parse(3, argv),
              ::testing::ExitedWithCode(2), "unknown flag --txn=50");
}

TEST(BenchOptionsTest, KernelThreadsFlagIsRejected) {
  // The flag of the deleted parallel event kernel; spelled in two pieces so
  // a search for the removed name finds no live reference to it.
  const char* argv[] = {"bench", "--kernel" "-threads=2"};
  EXPECT_EXIT(BenchOptions().FlagTable(kBenchStudy, {1}).Parse(2, argv),
              ::testing::ExitedWithCode(2), "unknown flag --kernel.threads=2");
}

TEST(BenchOptionsTest, DeclaredBenchFlagsAreAccepted) {
  // A bench's own rows parse beside the common ones.
  const char* argv[] = {"bench", "--report", "--tmp=/x", "--txns=7"};
  BenchOptions opt;
  bool report = false;
  std::string tmp;
  opt.FlagTable(kBenchTxns | kBenchSeed | kBenchJobs)
      .Switch("--report", &report, "report lines")
      .Text("--tmp=DIR", &tmp, "scratch directory")
      .Parse(4, argv);
  EXPECT_EQ(opt.txns, 7u);
  EXPECT_TRUE(report);
  EXPECT_EQ(tmp, "/x");
}

TEST(BenchOptionsTest, UndeclaredFieldsAreRejected) {
  // An ablation that reads no trace must not accept --trace and write none.
  const char* argv[] = {"bench", "--trace=t.trace"};
  EXPECT_EXIT(BenchOptions()
                  .FlagTable(kBenchTxns | kBenchSeed | kBenchJobs)
                  .Parse(2, argv),
              ::testing::ExitedWithCode(2), "unknown flag --trace=t.trace");
}

TEST(BenchOptionsTest, ProtocolAndFigureValuesAreChecked) {
  for (const char* bad : {"--protocols=q", "--protocols=", "--protocols=lx"}) {
    const char* argv[] = {"bench", bad};
    EXPECT_EXIT(BenchOptions().FlagTable(kBenchStudy, {11}).Parse(2, argv),
                ::testing::ExitedWithCode(2),
                "bad value for --protocols: '.*' \\(want letters from "
                "lpoe\\)")
        << bad;
  }
  const char* figure[] = {"bench", "--figure=99"};
  EXPECT_EXIT(
      BenchOptions().FlagTable(kBenchStudy, {11, 13, 14}).Parse(2, figure),
      ::testing::ExitedWithCode(2),
      "bad value for --figure: '99' \\(want 0 \\(all\\) or one of 11 13 "
      "14\\)");
}

TEST(BenchOptionsTest, MalformedNumberExitsTwoNamingFlagAndText) {
  const char* argv[] = {"bench", "--txns=12x"};
  EXPECT_EXIT(BenchOptions().FlagTable(kBenchStudy, {1}).Parse(2, argv),
              ::testing::ExitedWithCode(2),
              "bad value for --txns: '12x' \\(not a base-10 integer\\)");
  const char* jobs[] = {"bench", "--jobs=-1"};
  EXPECT_EXIT(BenchOptions().FlagTable(kBenchStudy, {1}).Parse(2, jobs),
              ::testing::ExitedWithCode(2),
              "bad value for --jobs: '-1' \\(want 0 to 1024\\)");
}

TEST(BenchOptionsTest, MalformedEnvironmentOverrideExitsTwo) {
  const char* argv[] = {"bench", "--txns=10"};
  EXPECT_EXIT(
      {
        setenv("LAZYREP_JOBS", "abc", 1);
        BenchOptions().FlagTable(kBenchStudy, {1}).Parse(2, argv);
      },
      ::testing::ExitedWithCode(2), "bad value for LAZYREP_JOBS: 'abc'");
  EXPECT_EXIT(
      {
        setenv("LAZYREP_TXNS", "0", 1);
        BenchOptions().FlagTable(kBenchStudy, {1}).Parse(2, argv);
      },
      ::testing::ExitedWithCode(2), "bad value for LAZYREP_TXNS: '0'");
}

TEST(ParseNumberTest, AcceptsWholeBase10NumbersInRange) {
  std::string error;
  uint64_t u = 0;
  EXPECT_TRUE(ParseNumber<uint64_t>("--txns", "18446744073709551615", 1,
                                    UINT64_MAX, &u, &error));
  EXPECT_EQ(u, UINT64_MAX);
  int i = 0;
  EXPECT_TRUE(ParseNumber("--first", "-7", -10, 10, &i, &error));
  EXPECT_EQ(i, -7);
  double d = 0;
  EXPECT_TRUE(ParseNumber("--tps", "2.5e3", 0.0, 1e9, &d, &error));
  EXPECT_EQ(d, 2500.0);
  EXPECT_TRUE(ParseNumber("--loss", "1", 0.0, 1.0, &d, &error));
  EXPECT_EQ(d, 1.0);
}

TEST(ParseNumberTest, RejectsMalformedTextAndLeavesValueUntouched) {
  constexpr uint64_t kMax = UINT64_MAX;
  for (const char* bad : {"", "abc", "12x", " 5", "5 ", "+5", "-1", "0x10",
                          "1e3", "5.0", "18446744073709551616"}) {
    uint64_t u = 42;
    std::string error;
    EXPECT_FALSE(ParseNumber<uint64_t>("--txns", bad, 0, kMax, &u, &error))
        << bad;
    EXPECT_EQ(u, 42u) << bad;
    EXPECT_EQ(error.find(std::string("bad value for --txns: '") + bad + "'"),
              0u)
        << error;
  }
  for (const char* bad : {"inf", "-inf", "nan", "1e999", "1.5x", ".", "1,5"}) {
    double d = 0.25;
    std::string error;
    EXPECT_FALSE(ParseNumber("--tps", bad, 0.0, DBL_MAX, &d, &error)) << bad;
    EXPECT_EQ(d, 0.25) << bad;
  }
}

TEST(ParseNumberTest, RangeErrorsNameTheRange) {
  std::string error;
  int i = 0;
  EXPECT_FALSE(ParseNumber("--sites", "0", 1, 65535, &i, &error));
  EXPECT_EQ(error, "bad value for --sites: '0' (want 1 to 65535)");
  EXPECT_FALSE(ParseNumber("--sites", "99999999999", 1, 65535, &i, &error));
  EXPECT_EQ(error, "bad value for --sites: '99999999999' (want 1 to 65535)");
  double d = 0;
  EXPECT_FALSE(ParseNumber("--loss", "1.5", 0.0, 1.0, &d, &error));
  EXPECT_EQ(error, "bad value for --loss: '1.5' (want 0 to 1)");
  uint64_t u = 0;
  EXPECT_FALSE(ParseNumber<uint64_t>("--txns", "0", 1, UINT64_MAX, &u, &error));
  EXPECT_EQ(error, "bad value for --txns: '0' (want at least 1)");
}

TEST(BenchOptionsTest, ThinKeepsEndpoints) {
  BenchOptions opt;
  opt.max_points = 3;
  std::vector<double> xs = {1, 2, 3, 4, 5, 6, 7};
  std::vector<double> thinned = opt.Thin(xs);
  ASSERT_EQ(thinned.size(), 3u);
  EXPECT_DOUBLE_EQ(thinned.front(), 1);
  EXPECT_DOUBLE_EQ(thinned.back(), 7);
}

TEST(BenchOptionsTest, QuickThinsToThreeUnlessPointsIsSet) {
  BenchOptions opt;
  opt.quick = true;
  std::vector<double> xs = {1, 2, 3, 4, 5, 6, 7};
  EXPECT_EQ(opt.Thin(xs).size(), 3u);
  opt.max_points = 5;
  EXPECT_EQ(opt.Thin(xs).size(), 5u);
}

TEST(BenchOptionsTest, ThinNoOpWhenEnoughBudget) {
  BenchOptions opt;
  std::vector<double> xs = {1, 2, 3};
  EXPECT_EQ(opt.Thin(xs).size(), 3u);
}

}  // namespace
}  // namespace lazyrep::core
