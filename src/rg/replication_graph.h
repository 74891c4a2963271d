#ifndef LAZYREP_RG_REPLICATION_GRAPH_H_
#define LAZYREP_RG_REPLICATION_GRAPH_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "db/types.h"

namespace lazyrep::rg {

/// Instructions to add one operation to the graph (Table 1).
inline constexpr double kAddInstr = 2000.0;
/// Instructions per edge examined during cycle checking (Table 1).
inline constexpr double kCheckInstrPerEdge = 117.0;

/// Work performed on the replication graph, in the units the paper costs:
/// operations added to the graph (kAddInstr each) and edges examined during
/// cycle checking (kCheckInstrPerEdge each).
struct GraphCost {
  uint64_t add_units = 0;    ///< (item, virtual-site) insertions
  uint64_t check_edges = 0;  ///< edges traversed by cycle-checking DFS

  /// Converts to instructions using the paper's published costs.
  double Instructions() const {
    return static_cast<double>(add_units) * kAddInstr +
           static_cast<double>(check_edges) * kCheckInstrPerEdge;
  }

  GraphCost& operator+=(const GraphCost& o) {
    add_units += o.add_units;
    check_edges += o.check_edges;
    return *this;
  }
};

/// The replication graph of §2.3, together with the virtual-site machinery
/// it is defined over.
///
/// Virtual sites: each physical site's transactions are partitioned into
/// groups (union-find); a transaction's virtual site at physical site s is
/// the group it belongs to there, and the group's data set is the union of
/// its members' accesses at s (locality rule). The union rule merges two
/// groups when their transactions have a direct or transitive rw/wr conflict
/// on a common item (ww conflicts never merge — the Thomas Write Rule covers
/// them). The split rule recomputes a group when a member reaches the
/// aborted or completed state.
///
/// The replication graph itself is the bipartite graph between *global*
/// transactions and their virtual sites; a schedule is globally serializable
/// if the graph can evolve acyclically [5,6]. RgTest tentatively applies a
/// set of operations (locality + union rules) and reports whether a cycle
/// would form; on failure every tentative change is rolled back.
///
/// This class is pure logic: simulated-time costs are *reported* through
/// GraphCost and charged to a CPU by the caller (GraphSite).
class ReplicationGraph {
 public:
  /// The sites and items `placement` lays out. A write is an access at
  /// every replica of its item (footnote 4), so it lands in the
  /// transaction's virtual site at each of the item's replica sites: under
  /// full replication every update transaction acquires a virtual site at
  /// every physical site the moment it first writes.
  explicit ReplicationGraph(db::Placement placement);
  /// `num_sites` fully replicated sites.
  explicit ReplicationGraph(int num_sites);

  // -- transaction lifecycle ------------------------------------------------

  /// Registers a transaction before its first RgTest. `is_global` marks
  /// update transactions on replicated data.
  void AddTxn(db::TxnId txn, db::SiteId origin, bool is_global);

  /// Marks the transaction committed at its origination site (used by the
  /// pessimistic rule: a cycle through a committed transaction aborts the
  /// requester rather than making it wait).
  void MarkCommitted(db::TxnId txn);

  bool Contains(db::TxnId txn) const { return txns_.contains(txn); }

  /// Removes the transaction (on abort or completion) and applies the split
  /// rule to every group it belonged to. Cost accumulates into `cost`.
  void Remove(db::TxnId txn, GraphCost* cost);

  // -- RGtest ---------------------------------------------------------------

  enum class TestResult : uint8_t {
    kOk,     ///< acyclic; tentative changes were made permanent
    kCycle,  ///< a cycle would form; all tentative changes rolled back
  };

  struct TestOutcome {
    TestResult result = TestResult::kOk;
    /// Valid when result == kCycle: some transaction on the cycle is in the
    /// committed state.
    bool cycle_has_committed = false;
  };

  /// Tentatively applies `ops` for `txn` (locality + union rules, with a
  /// cycle check guarding every union). On success the changes are kept; on
  /// the first cycle everything from this call is rolled back. Cost (adds and
  /// DFS edges) accumulates into `cost` regardless of outcome.
  TestOutcome RgTest(db::TxnId txn, std::span<const db::Operation> ops,
                     GraphCost* cost);

  // -- introspection (tests, diagnostics) ------------------------------------

  /// True when the two transactions currently share a virtual site at `site`.
  bool SameVirtualSite(db::SiteId site, db::TxnId a, db::TxnId b);

  /// Number of live transactions known to the graph.
  size_t live_txns() const { return txns_.size(); }

  /// Number of groups with more than one member at `site`.
  size_t MergedGroupsAt(db::SiteId site) const;

  /// Members of the virtual site `txn` belongs to at `site` (including
  /// implicit singletons).
  std::vector<db::TxnId> VirtualSiteMembers(db::SiteId site, db::TxnId txn);

  /// Exhaustive acyclicity check over the current graph (O(V+E); test use).
  bool IsAcyclic();

 private:
  struct TxnInfo {
    db::SiteId origin = 0;
    bool is_global = false;
    bool committed = false;
    std::vector<db::ItemId> reads;   // read at the origin site
    std::vector<db::ItemId> writes;  // replicated to all sites
    /// Sites where this transaction has virtual sites under partial
    /// replication (origin + replica sites of its write set); unused when
    /// the graph models full replication.
    std::vector<db::SiteId> present;
    /// Sites where this transaction has a materialized union-find entry.
    std::vector<db::SiteId> materialized;
  };

  /// The DFS nodes one search has visited: an open-addressed set (linear
  /// probing, at most half full) whose slot counts only when it carries the
  /// current search's epoch, so Clear is an epoch bump. It answers
  /// membership only, so the search order does not depend on it. Kept
  /// across searches, it allocates only while it grows.
  class VisitedSet {
   public:
    void Clear() {
      ++epoch_;
      live_ = 0;
    }
    /// Adds `node`; false when the search has visited it already.
    bool Insert(uint64_t node);

   private:
    struct Slot {
      uint64_t node = 0;
      uint64_t epoch = 0;  // a slot of an earlier search is free
    };
    /// Doubles the slot array (64 slots at first) and re-places this
    /// search's nodes.
    void Grow();
    size_t Home(uint64_t node) const {
      // Fibonacci hashing: the top log2(size) bits of a multiplicative hash.
      return static_cast<size_t>((node * 0x9E3779B97F4A7C15ull) >> shift_);
    }
    std::vector<Slot> slots_;  // power-of-two size, or empty
    uint32_t shift_ = 0;       // 64 - log2(slots_.size())
    size_t live_ = 0;          // this search's nodes
    uint64_t epoch_ = 1;
  };

  /// A DFS stack entry of Connected: a node, and whether a committed
  /// transaction lies on the path that discovered it.
  struct DfsEntry {
    uint64_t node;
    bool committed;
  };

  struct SitePartition {
    std::unordered_map<db::TxnId, db::TxnId> parent;
    /// root -> member list (materialized members only, root included).
    std::unordered_map<db::TxnId, std::vector<db::TxnId>> members;
  };

  /// One merge, as Merge reports it: what RgTest's rollback undoes.
  struct UndoUnion {
    db::SiteId site;
    db::TxnId kept_root;
    db::TxnId absorbed_root;
    size_t kept_members_before;
  };

  db::TxnId Find(db::SiteId site, db::TxnId txn) const;
  void Materialize(db::SiteId site, db::TxnId txn, TxnInfo* info);

  /// Invokes `fn(site)` for every site where the transaction has a virtual
  /// site until a call returns true, and returns whether one did. Once it
  /// has written (only global transactions write): every site in order
  /// (full replication) or its tracked presence set (partial). Otherwise:
  /// the origin only.
  template <typename Fn>
  bool ForEachPresentSite(const TxnInfo& info, Fn&& fn) const {
    if (info.writes.empty()) return fn(info.origin);
    if (!placement_.full()) {
      for (db::SiteId s : info.present) {
        if (fn(s)) return true;
      }
      return false;
    }
    for (uint32_t s = 0; s < placement_.num_sites; ++s) {
      if (fn(static_cast<db::SiteId>(s))) return true;
    }
    return false;
  }

  /// Invokes `fn(next)` for every neighbour of a DFS node of the bipartite
  /// graph until a call returns true, and returns whether one did. A
  /// group's neighbours are its global members in member-list order (an
  /// unmaterialized root is the implicit singleton {root}; local
  /// transactions have no edges); a transaction's are its virtual sites,
  /// in ForEachPresentSite's order.
  template <typename Fn>
  bool ForEachNeighbor(uint64_t node, Fn&& fn) const;

  /// Merges the groups of `a` and `b` at `site` after a cycle check.
  /// Returns false (and performs nothing) when the merge would close a
  /// cycle, setting `*has_committed` from the transactions on the closing
  /// path; otherwise logs the merge into `undo`.
  bool TryUnion(db::SiteId site, db::TxnId a, db::TxnId b, GraphCost* cost,
                bool* has_committed, std::vector<UndoUnion>* undo);

  /// DFS connectivity query between two group roots at `site`, excluding the
  /// union about to happen. Charges every edge it examines via `cost`. When
  /// connected, sets `*committed_on_path` to whether a committed transaction
  /// lies on the path the search found.
  bool Connected(db::SiteId site, db::TxnId from_root, db::TxnId to_root,
                 GraphCost* cost, bool* committed_on_path);

  /// Merges the groups rooted at `ra` and `rb` at `site`: the larger one
  /// (`ra`'s on a tie) keeps its root and appends the other's members. The
  /// absorbed root's member list stays until the caller drops it.
  UndoUnion Merge(db::SiteId site, db::TxnId ra, db::TxnId rb);

  /// Re-partitions `members` at `site` by re-applying the union rule
  /// (split rule). Charges re-add units.
  void Recompute(db::SiteId site, std::vector<db::TxnId> members,
                 GraphCost* cost);

  db::Placement placement_;
  std::unordered_map<db::TxnId, TxnInfo> txns_;
  std::vector<SitePartition> sites_;
  /// item -> live global transactions writing it.
  std::unordered_map<db::ItemId, std::vector<db::TxnId>> writers_;
  /// item -> live transactions that read it (each reads at its origin site).
  std::unordered_map<db::ItemId, std::vector<db::TxnId>> readers_;
  /// Connected's working state, kept and reused by every search.
  VisitedSet visited_;
  std::vector<DfsEntry> dfs_stack_;
};

}  // namespace lazyrep::rg

#endif  // LAZYREP_RG_REPLICATION_GRAPH_H_
