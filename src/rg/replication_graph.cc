#include "rg/replication_graph.h"

#include <algorithm>
#include <utility>

#include "sim/check.h"

namespace lazyrep::rg {
namespace {

// DFS node encoding: bit 63 marks a virtual-site (group) node, bits 62..47
// carry the site, low 47 bits the transaction id (group root or txn node).
constexpr uint64_t kGroupBit = uint64_t{1} << 63;

uint64_t TxnNode(db::TxnId txn) { return txn; }

uint64_t GroupNode(db::SiteId site, db::TxnId root) {
  return kGroupBit | (static_cast<uint64_t>(site) << 47) | root;
}

template <typename T>
bool VecContains(const std::vector<T>& v, T x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

void EraseValue(std::vector<db::TxnId>* v, db::TxnId x) {
  v->erase(std::remove(v->begin(), v->end(), x), v->end());
}

}  // namespace

ReplicationGraph::ReplicationGraph(db::Placement placement)
    : placement_(placement) {
  LAZYREP_CHECK(placement.num_sites >= 1);
  sites_.resize(placement.num_sites);
}

ReplicationGraph::ReplicationGraph(int num_sites)
    : ReplicationGraph(db::Placement{static_cast<uint32_t>(num_sites), 1,
                                     static_cast<uint32_t>(num_sites)}) {}

void ReplicationGraph::AddTxn(db::TxnId txn, db::SiteId origin,
                              bool is_global) {
  auto [it, inserted] = txns_.try_emplace(txn);
  LAZYREP_CHECK_MSG(inserted, "transaction already in replication graph");
  it->second.origin = origin;
  it->second.is_global = is_global;
  if (!placement_.full()) it->second.present.push_back(origin);
}

void ReplicationGraph::MarkCommitted(db::TxnId txn) {
  auto it = txns_.find(txn);
  LAZYREP_CHECK(it != txns_.end());
  it->second.committed = true;
}

db::TxnId ReplicationGraph::Find(db::SiteId site, db::TxnId txn) const {
  const auto& parent = sites_[site].parent;
  db::TxnId cur = txn;
  while (true) {
    auto it = parent.find(cur);
    if (it == parent.end() || it->second == cur) return cur;
    cur = it->second;
  }
}

void ReplicationGraph::Materialize(db::SiteId site, db::TxnId txn,
                                   TxnInfo* info) {
  SitePartition& part = sites_[site];
  if (part.parent.contains(txn)) return;
  part.parent[txn] = txn;
  part.members[txn] = {txn};
  info->materialized.push_back(site);
}

bool ReplicationGraph::Connected(db::SiteId site, db::TxnId from_root,
                                 db::TxnId to_root, GraphCost* cost,
                                 std::vector<db::TxnId>* path_txns) {
  const uint64_t start = GroupNode(site, from_root);
  const uint64_t target = GroupNode(site, to_root);

  // Iterative DFS with parent tracking for path reconstruction.
  std::unordered_map<uint64_t, uint64_t> came_from;
  came_from.emplace(start, start);
  std::vector<uint64_t> stack{start};

  auto visit = [&](uint64_t next, uint64_t from) -> bool {
    ++cost->check_edges;
    if (came_from.contains(next)) return false;
    came_from.emplace(next, from);
    if (next == target) return true;
    stack.push_back(next);
    return false;
  };

  bool found = false;
  while (!stack.empty() && !found) {
    uint64_t node = stack.back();
    stack.pop_back();
    if (node & kGroupBit) {
      db::SiteId s = static_cast<db::SiteId>((node >> 47) & 0xffff);
      db::TxnId root = node & ((uint64_t{1} << 47) - 1);
      // Neighbors: the *global* member transactions of this group. Local
      // transactions have no edges in the bipartite graph; an unmaterialized
      // root is an implicit singleton {root}.
      auto mit = sites_[s].members.find(root);
      if (mit != sites_[s].members.end()) {
        for (db::TxnId member : mit->second) {
          const TxnInfo& mi = txns_.at(member);
          if (!mi.is_global) continue;
          if (visit(TxnNode(member), node)) {
            found = true;
            break;
          }
        }
      } else {
        const TxnInfo& mi = txns_.at(root);
        if (mi.is_global && visit(TxnNode(root), node)) found = true;
      }
    } else {
      db::TxnId txn = node;
      const TxnInfo& info = txns_.at(txn);
      ForEachPresentSite(info, [&](db::SiteId s) {
        if (!found && visit(GroupNode(s, Find(s, txn)), node)) found = true;
      });
    }
  }

  if (found && path_txns != nullptr) {
    path_txns->clear();
    uint64_t cur = target;
    while (cur != start) {
      if (!(cur & kGroupBit)) path_txns->push_back(cur);
      cur = came_from.at(cur);
    }
  }
  return found;
}

bool ReplicationGraph::TryUnion(db::SiteId site, db::TxnId a, db::TxnId b,
                                GraphCost* cost, bool* has_committed,
                                std::vector<UndoUnion>* undo) {
  TxnInfo& ia = txns_.at(a);
  TxnInfo& ib = txns_.at(b);
  Materialize(site, a, &ia);
  Materialize(site, b, &ib);
  db::TxnId ra = Find(site, a);
  db::TxnId rb = Find(site, b);
  if (ra == rb) return true;  // already share the virtual site

  // Would merging close a cycle? (The two groups are already connected via
  // another part of the bipartite graph.)
  std::vector<db::TxnId> path;
  if (Connected(site, ra, rb, cost, &path)) {
    *has_committed = false;
    for (db::TxnId t : path) {
      if (txns_.at(t).committed) {
        *has_committed = true;
        break;
      }
    }
    // The requester's own groups are endpoints of the cycle; committed
    // endpoint members on the path were already covered (path includes the
    // traversed transactions only, matching "a transaction in the cycle").
    return false;
  }

  SitePartition& part = sites_[site];
  std::vector<db::TxnId>& ma = part.members.at(ra);
  std::vector<db::TxnId>& mb = part.members.at(rb);
  db::TxnId kept = ma.size() >= mb.size() ? ra : rb;
  db::TxnId absorbed = kept == ra ? rb : ra;
  std::vector<db::TxnId>& mk = part.members.at(kept);
  std::vector<db::TxnId>& mab = part.members.at(absorbed);
  undo->push_back(UndoUnion{site, kept, absorbed, mk.size()});
  mk.insert(mk.end(), mab.begin(), mab.end());
  part.parent[absorbed] = kept;
  return true;
}

ReplicationGraph::TestOutcome ReplicationGraph::RgTest(
    db::TxnId txn, std::span<const db::Operation> ops, GraphCost* cost) {
  auto it = txns_.find(txn);
  LAZYREP_CHECK_MSG(it != txns_.end(), "RgTest for unknown transaction");
  TxnInfo& info = it->second;

  // Every access this call admits is appended to `reads` or `writes` and
  // puts `txn` at the back of that item's readers_ or writers_ list (the
  // VecContains dedupe makes the two one-to-one; TryUnion touches neither),
  // so a rollback truncates back to these sizes.
  std::vector<UndoUnion> undo_unions;
  const size_t reads_before = info.reads.size();
  const size_t writes_before = info.writes.size();
  const size_t present_before = info.present.size();
  const bool had_writes = info.has_writes;

  TestOutcome outcome;
  for (const db::Operation& op : ops) {
    bool has_committed = false;
    if (op.type == db::OpType::kRead) {
      cost->add_units += 1;
      if (!VecContains(info.reads, op.item)) {
        info.reads.push_back(op.item);
        readers_[op.item].push_back(txn);
      }
      // Union rule: rw conflict with every live writer of the item; the
      // reader reads at its origination site. The conflict lists, here and
      // below, are walked in place: TryUnion writes only the site
      // partitions, never writers_ or readers_.
      auto wit = writers_.find(op.item);
      if (wit != writers_.end()) {
        for (db::TxnId w : wit->second) {
          if (w == txn) continue;
          if (!TryUnion(info.origin, txn, w, cost, &has_committed,
                        &undo_unions)) {
            outcome.result = TestResult::kCycle;
            outcome.cycle_has_committed = has_committed;
            break;
          }
        }
      }
    } else {
      LAZYREP_CHECK_MSG(info.is_global, "local transactions cannot write");
      // Footnote 4: a write is an access at every replica, so it lands in
      // the transaction's virtual site at every replica site (every physical
      // site under full replication).
      if (placement_.full()) {
        cost->add_units += placement_.num_sites;
      } else {
        placement_.ForEachReplica(op.item, [&](db::SiteId site) {
          ++cost->add_units;
          if (!VecContains(info.present, site)) info.present.push_back(site);
        });
      }
      info.has_writes = true;
      if (!VecContains(info.writes, op.item)) {
        info.writes.push_back(op.item);
        writers_[op.item].push_back(txn);
      }
      // Union rule, first bullet: at the item's *primary* site any conflict
      // merges -- including ww. All writers of an item originate at its
      // primary site (ownership rule), so the merge happens at the writer's
      // origin. (Only at secondary copies does the Thomas Write Rule excuse
      // ww conflicts from merging, per the remark in section 2.3.1 about
      // contention "during replica propagation".)
      auto wit2 = writers_.find(op.item);
      if (wit2 != writers_.end()) {
        for (db::TxnId w : wit2->second) {
          if (w == txn) continue;
          db::SiteId w_origin = txns_.at(w).origin;
          if (!TryUnion(info.origin, txn, w, cost, &has_committed,
                        &undo_unions)) {
            outcome.result = TestResult::kCycle;
            outcome.cycle_has_committed = has_committed;
            break;
          }
          // Relaxed ownership: co-writers from different origination sites
          // have no single local DBMS serializing them, so the virtual-site
          // merge cannot vouch for their order. Merging at *both* origins
          // deliberately closes a cycle, forcing one of the pair to wait or
          // abort — the conservative "preliminary" protocol of footnote 2.
          if (w_origin != info.origin &&
              !TryUnion(w_origin, txn, w, cost, &has_committed,
                        &undo_unions)) {
            outcome.result = TestResult::kCycle;
            outcome.cycle_has_committed = has_committed;
            break;
          }
        }
      }
      // Union rule, second bullet: wr conflict with every live reader, at
      // the reader's origination site (where the read happened).
      auto rit = readers_.find(op.item);
      if (rit != readers_.end() && outcome.result != TestResult::kCycle) {
        for (db::TxnId r : rit->second) {
          if (r == txn) continue;
          if (!TryUnion(txns_.at(r).origin, txn, r, cost, &has_committed,
                        &undo_unions)) {
            outcome.result = TestResult::kCycle;
            outcome.cycle_has_committed = has_committed;
            break;
          }
        }
      }
    }
    if (outcome.result == TestResult::kCycle) break;
  }

  if (outcome.result == TestResult::kCycle) {
    // Roll back every tentative change, in reverse order.
    for (auto u = undo_unions.rbegin(); u != undo_unions.rend(); ++u) {
      SitePartition& part = sites_[u->site];
      part.members.at(u->kept_root).resize(u->kept_members_before);
      part.parent[u->absorbed_root] = u->absorbed_root;
    }
    for (size_t i = reads_before; i < info.reads.size(); ++i) {
      readers_.at(info.reads[i]).pop_back();
    }
    for (size_t i = writes_before; i < info.writes.size(); ++i) {
      writers_.at(info.writes[i]).pop_back();
    }
    info.reads.resize(reads_before);
    info.writes.resize(writes_before);
    info.present.resize(present_before);
    info.has_writes = had_writes;
    return outcome;
  }

  // Success: make unions permanent by discarding absorbed roots' stale
  // member lists.
  for (const UndoUnion& u : undo_unions) {
    sites_[u.site].members.erase(u.absorbed_root);
  }
  return outcome;
}

void ReplicationGraph::Recompute(db::SiteId site,
                                 std::vector<db::TxnId> members,
                                 GraphCost* cost) {
  SitePartition& part = sites_[site];
  // Reset each member to a singleton.
  for (db::TxnId m : members) {
    part.parent[m] = m;
    part.members[m] = {m};
    const TxnInfo& mi = txns_.at(m);
    // Re-adding the member's accesses relevant at this site (locality rule).
    uint64_t relevant = mi.writes.size();
    if (mi.origin == site) relevant += mi.reads.size();
    cost->add_units += relevant;
  }
  std::unordered_set<db::TxnId> member_set(members.begin(), members.end());
  // Re-apply the union rule among the survivors. Splitting cannot create
  // cycles (the graph was acyclic and only lost edges), so unions here are
  // unchecked; the DFS cost is already reflected in the re-add units.
  auto unite = [&](db::TxnId a, db::TxnId b) {
    db::TxnId ra = Find(site, a);
    db::TxnId rb = Find(site, b);
    if (ra == rb) return;
    std::vector<db::TxnId>& ma = part.members.at(ra);
    std::vector<db::TxnId>& mb = part.members.at(rb);
    db::TxnId kept = ma.size() >= mb.size() ? ra : rb;
    db::TxnId absorbed = kept == ra ? rb : ra;
    auto& mk = part.members.at(kept);
    auto& mab = part.members.at(absorbed);
    mk.insert(mk.end(), mab.begin(), mab.end());
    part.members.erase(absorbed);
    part.parent[absorbed] = kept;
  };
  for (db::TxnId m : members) {
    const TxnInfo& mi = txns_.at(m);
    if (mi.origin != site) continue;  // reads happen at the origin only
    for (db::ItemId d : mi.reads) {
      auto wit = writers_.find(d);
      if (wit == writers_.end()) continue;
      for (db::TxnId w : wit->second) {
        if (w != m && member_set.contains(w)) unite(m, w);
      }
    }
  }
  // ww merges: writers of a common item share a virtual site at each
  // writer's origination site (under the ownership rule both origins
  // coincide with the item's primary site).
  for (db::TxnId m : members) {
    const TxnInfo& mi = txns_.at(m);
    for (db::ItemId d : mi.writes) {
      auto wit = writers_.find(d);
      if (wit == writers_.end()) continue;
      for (db::TxnId w : wit->second) {
        if (w == m || !member_set.contains(w)) continue;
        if (mi.origin == site || txns_.at(w).origin == site) unite(m, w);
      }
    }
  }
}

void ReplicationGraph::Remove(db::TxnId txn, GraphCost* cost) {
  auto it = txns_.find(txn);
  if (it == txns_.end()) return;  // never entered the graph
  TxnInfo& info = it->second;

  for (db::ItemId d : info.reads) {
    auto rit = readers_.find(d);
    if (rit != readers_.end()) {
      EraseValue(&rit->second, txn);
      if (rit->second.empty()) readers_.erase(rit);
    }
  }
  for (db::ItemId d : info.writes) {
    auto wit = writers_.find(d);
    if (wit != writers_.end()) {
      EraseValue(&wit->second, txn);
      if (wit->second.empty()) writers_.erase(wit);
    }
  }

  // Split rule at every site where the transaction was materialized.
  for (db::SiteId site : info.materialized) {
    SitePartition& part = sites_[site];
    db::TxnId root = Find(site, txn);
    auto mit = part.members.find(root);
    LAZYREP_CHECK(mit != part.members.end());
    std::vector<db::TxnId> survivors = std::move(mit->second);
    EraseValue(&survivors, txn);
    // Clear the whole group, then rebuild the survivors' partition.
    part.members.erase(root);
    part.parent.erase(txn);
    for (db::TxnId m : survivors) part.parent.erase(m);
    if (!survivors.empty()) {
      // Temporarily drop `txn` from txns_? Not needed: Recompute only
      // consults survivors' info and the reader/writer lists already
      // stripped of `txn`.
      Recompute(site, std::move(survivors), cost);
    }
  }

  txns_.erase(it);
}

bool ReplicationGraph::SameVirtualSite(db::SiteId site, db::TxnId a,
                                       db::TxnId b) {
  return Find(site, a) == Find(site, b);
}

size_t ReplicationGraph::MergedGroupsAt(db::SiteId site) const {
  size_t n = 0;
  for (const auto& [root, members] : sites_[site].members) {
    if (members.size() > 1) ++n;
  }
  return n;
}

std::vector<db::TxnId> ReplicationGraph::VirtualSiteMembers(db::SiteId site,
                                                            db::TxnId txn) {
  db::TxnId root = Find(site, txn);
  auto it = sites_[site].members.find(root);
  if (it == sites_[site].members.end()) return {txn};
  return it->second;
}

bool ReplicationGraph::IsAcyclic() {
  // Undirected cycle detection over the bipartite graph: DFS from every
  // unvisited global transaction; seeing a visited node through a new edge
  // (other than the one we came by) is a cycle.
  std::unordered_set<uint64_t> visited;
  for (const auto& [txn, info] : txns_) {
    if (!info.is_global) continue;
    uint64_t start = TxnNode(txn);
    if (visited.contains(start)) continue;
    // (node, via-edge-parent)
    std::vector<std::pair<uint64_t, uint64_t>> stack{{start, start}};
    visited.insert(start);
    while (!stack.empty()) {
      auto [node, parent] = stack.back();
      stack.pop_back();
      std::vector<uint64_t> neighbors;
      if (node & kGroupBit) {
        db::SiteId s = static_cast<db::SiteId>((node >> 47) & 0xffff);
        db::TxnId root = node & ((uint64_t{1} << 47) - 1);
        auto mit = sites_[s].members.find(root);
        if (mit != sites_[s].members.end()) {
          for (db::TxnId m : mit->second) {
            if (txns_.at(m).is_global) neighbors.push_back(TxnNode(m));
          }
        } else if (txns_.at(root).is_global) {
          neighbors.push_back(TxnNode(root));
        }
      } else {
        const TxnInfo& ti = txns_.at(node);
        ForEachPresentSite(ti, [&](db::SiteId s) {
          neighbors.push_back(GroupNode(s, Find(s, node)));
        });
      }
      bool skipped_parent = false;
      for (uint64_t nb : neighbors) {
        if (nb == parent && !skipped_parent) {
          skipped_parent = true;  // the tree edge back; one occurrence only
          continue;
        }
        if (visited.contains(nb)) return false;  // cycle
        visited.insert(nb);
        stack.push_back({nb, node});
      }
    }
  }
  return true;
}

}  // namespace lazyrep::rg
