#include "rg/replication_graph.h"

#include <algorithm>
#include <bit>
#include <unordered_set>
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

/// The live transactions `lists` holds for `item` (none when absent).
std::span<const db::TxnId> ListAt(
    const std::unordered_map<db::ItemId, std::vector<db::TxnId>>& lists,
    db::ItemId item) {
  auto it = lists.find(item);
  if (it == lists.end()) return {};
  return it->second;
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

template <typename Fn>
bool ReplicationGraph::ForEachNeighbor(uint64_t node, Fn&& fn) const {
  if (!(node & kGroupBit)) {
    const db::TxnId txn = node;
    return ForEachPresentSite(txns_.at(txn), [&](db::SiteId s) {
      return fn(GroupNode(s, Find(s, txn)));
    });
  }
  const auto s = static_cast<db::SiteId>((node >> 47) & 0xffff);
  const db::TxnId root = node & ((uint64_t{1} << 47) - 1);
  auto mit = sites_[s].members.find(root);
  if (mit == sites_[s].members.end()) {
    return txns_.at(root).is_global && fn(TxnNode(root));
  }
  for (db::TxnId member : mit->second) {
    if (txns_.at(member).is_global && fn(TxnNode(member))) return true;
  }
  return false;
}

bool ReplicationGraph::VisitedSet::Insert(uint64_t node) {
  if (2 * (live_ + 1) > slots_.size()) Grow();
  const size_t mask = slots_.size() - 1;
  size_t pos = Home(node);
  while (slots_[pos].epoch == epoch_) {
    if (slots_[pos].node == node) return false;
    pos = (pos + 1) & mask;
  }
  slots_[pos] = Slot{node, epoch_};
  ++live_;
  return true;
}

void ReplicationGraph::VisitedSet::Grow() {
  const size_t size = slots_.empty() ? 64 : 2 * slots_.size();
  std::vector<Slot> old(size);
  old.swap(slots_);
  shift_ = static_cast<uint32_t>(64 - std::countr_zero(size));
  const size_t mask = size - 1;
  for (const Slot& slot : old) {
    if (slot.epoch != epoch_) continue;
    size_t pos = Home(slot.node);
    while (slots_[pos].epoch == epoch_) pos = (pos + 1) & mask;
    slots_[pos] = slot;
  }
}

bool ReplicationGraph::Connected(db::SiteId site, db::TxnId from_root,
                                 db::TxnId to_root, GraphCost* cost,
                                 bool* committed_on_path) {
  const uint64_t start = GroupNode(site, from_root);
  const uint64_t target = GroupNode(site, to_root);

  // Iterative DFS. Each entry carries whether a committed transaction lies
  // on the path that discovered its node, so the node that reaches the
  // target holds the closing path's answer.
  visited_.Clear();
  visited_.Insert(start);
  dfs_stack_.assign(1, DfsEntry{start, false});
  while (!dfs_stack_.empty()) {
    const DfsEntry from = dfs_stack_.back();
    dfs_stack_.pop_back();
    const bool found = ForEachNeighbor(from.node, [&](uint64_t next) {
      ++cost->check_edges;
      if (!visited_.Insert(next)) return false;
      if (next == target) return true;
      const bool committed =
          from.committed ||
          (!(next & kGroupBit) && txns_.at(next).committed);
      dfs_stack_.push_back({next, committed});
      return false;
    });
    if (found) {
      *committed_on_path = from.committed;
      return true;
    }
  }
  return false;
}

ReplicationGraph::UndoUnion ReplicationGraph::Merge(db::SiteId site,
                                                    db::TxnId ra,
                                                    db::TxnId rb) {
  SitePartition& part = sites_[site];
  std::vector<db::TxnId>* kept = &part.members.at(ra);
  std::vector<db::TxnId>* absorbed = &part.members.at(rb);
  if (kept->size() < absorbed->size()) {
    std::swap(ra, rb);
    std::swap(kept, absorbed);
  }
  const UndoUnion merge{site, ra, rb, kept->size()};
  kept->insert(kept->end(), absorbed->begin(), absorbed->end());
  part.parent[rb] = ra;
  return merge;
}

bool ReplicationGraph::TryUnion(db::SiteId site, db::TxnId a, db::TxnId b,
                                GraphCost* cost, bool* has_committed,
                                std::vector<UndoUnion>* undo) {
  Materialize(site, a, &txns_.at(a));
  Materialize(site, b, &txns_.at(b));
  db::TxnId ra = Find(site, a);
  db::TxnId rb = Find(site, b);
  if (ra == rb) return true;  // already share the virtual site

  // Would merging close a cycle? (The two groups are already connected via
  // another part of the bipartite graph.) The requester's own groups are
  // the cycle's endpoints; "a transaction in the cycle" is one the search
  // passed on its way between them.
  if (Connected(site, ra, rb, cost, has_committed)) return false;
  undo->push_back(Merge(site, ra, rb));
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

  TestOutcome outcome;
  // The union rule's one step: merge `txn`'s virtual site at `site` with
  // `other`'s under a cycle check. After the call's first cycle no further
  // union is tried; false from then on.
  auto unite = [&](db::SiteId site, db::TxnId other) {
    if (outcome.result == TestResult::kOk && other != txn &&
        !TryUnion(site, txn, other, cost, &outcome.cycle_has_committed,
                  &undo_unions)) {
      outcome.result = TestResult::kCycle;
    }
    return outcome.result == TestResult::kOk;
  };
  for (const db::Operation& op : ops) {
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
      for (db::TxnId w : ListAt(writers_, op.item)) {
        if (!unite(info.origin, w)) break;
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
      // Relaxed ownership: co-writers from different origination sites
      // have no single local DBMS serializing them, so the virtual-site
      // merge cannot vouch for their order. Merging at *both* origins
      // deliberately closes a cycle, forcing one of the pair to wait or
      // abort — the conservative "preliminary" protocol of footnote 2.
      for (db::TxnId w : ListAt(writers_, op.item)) {
        const db::SiteId w_origin = txns_.at(w).origin;
        if (!unite(info.origin, w) ||
            (w_origin != info.origin && !unite(w_origin, w))) {
          break;
        }
      }
      // Union rule, second bullet: wr conflict with every live reader, at
      // the reader's origination site (where the read happened).
      for (db::TxnId r : ListAt(readers_, op.item)) {
        if (!unite(txns_.at(r).origin, r)) break;
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
  // unchecked, and final at once; the DFS cost is already reflected in the
  // re-add units.
  auto unite = [&](db::TxnId a, db::TxnId b) {
    db::TxnId ra = Find(site, a);
    db::TxnId rb = Find(site, b);
    if (ra != rb) part.members.erase(Merge(site, ra, rb).absorbed_root);
  };
  for (db::TxnId m : members) {
    const TxnInfo& mi = txns_.at(m);
    if (mi.origin != site) continue;  // reads happen at the origin only
    for (db::ItemId d : mi.reads) {
      for (db::TxnId w : ListAt(writers_, d)) {
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
      for (db::TxnId w : ListAt(writers_, d)) {
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

  for (auto [items, lists] : {std::pair{&info.reads, &readers_},
                              std::pair{&info.writes, &writers_}}) {
    for (db::ItemId d : *items) {
      auto lit = lists->find(d);
      if (lit == lists->end()) continue;
      EraseValue(&lit->second, txn);
      if (lit->second.empty()) lists->erase(lit);
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
    // Recompute consults only the survivors' records and the reader and
    // writer lists, which no longer hold `txn`.
    part.members.erase(root);
    part.parent.erase(txn);
    for (db::TxnId m : survivors) part.parent.erase(m);
    if (!survivors.empty()) Recompute(site, std::move(survivors), cost);
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
    if (!visited.insert(start).second) continue;
    // (node, via-edge-parent)
    std::vector<std::pair<uint64_t, uint64_t>> stack{{start, start}};
    while (!stack.empty()) {
      const std::pair<uint64_t, uint64_t> top = stack.back();
      stack.pop_back();
      bool skipped_parent = false;
      const bool cycle = ForEachNeighbor(top.first, [&](uint64_t nb) {
        if (nb == top.second && !skipped_parent) {
          skipped_parent = true;  // the tree edge back; one occurrence only
          return false;
        }
        if (!visited.insert(nb).second) return true;
        stack.push_back({nb, top.first});
        return false;
      });
      if (cycle) return false;
    }
  }
  return true;
}

}  // namespace lazyrep::rg
