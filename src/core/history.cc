#include "core/history.h"

#include <algorithm>
#include <cstdint>

namespace lazyrep::core {

void HistoryRecorder::RecordRead(db::TxnId reader, db::ItemId item,
                                 db::Timestamp version) {
  reads_.push_back(Read{reader, version, item});
}

namespace {

enum class EdgeKind : uint8_t { kWr, kWw, kRw };

struct Edge {
  uint32_t to;
  db::ItemId item;
  EdgeKind kind;
};

constexpr const char* kKindName[] = {"wr", "ww", "rw"};

constexpr uint32_t kNoNode = UINT32_MAX;

}  // namespace

bool HistoryRecorder::CheckOneCopySerializable(std::string* why) const {
  // Nodes: the committed transactions, numbered densely in id order.
  std::vector<db::TxnId> txns = commits_;
  std::sort(txns.begin(), txns.end());
  txns.erase(std::unique(txns.begin(), txns.end()), txns.end());
  const auto n = static_cast<uint32_t>(txns.size());
  std::vector<uint32_t> node_of(txns.empty() ? 0 : txns.back() + 1, kNoNode);
  for (uint32_t v = 0; v < n; ++v) node_of[txns[v]] = v;
  const auto node = [&node_of](db::TxnId txn) {
    return txn < node_of.size() ? node_of[txn] : kNoNode;
  };

  // Edges as (from, edge) pairs. A wr edge from a writer that never
  // committed is dropped: nothing points at such a writer, so it closes no
  // cycle.
  std::vector<std::pair<uint32_t, Edge>> edges;
  edges.reserve(writes_.size() + 2 * reads_.size());
  const auto add = [&edges](uint32_t from, uint32_t to, EdgeKind kind,
                            db::ItemId item) {
    if (from == kNoNode || to == kNoNode || from == to) return;
    edges.push_back({from, Edge{to, item, kind}});
  };

  // Versions grouped by item, item i's in versions[item_start[i] ..
  // item_start[i + 1]) in timestamp order; consecutive ones are the ww
  // edges.
  db::ItemId items = 0;
  for (const Write& w : writes_) items = std::max(items, w.item + 1);
  std::vector<uint32_t> item_start(items + 1, 0);
  for (const Write& w : writes_) ++item_start[w.item + 1];
  for (db::ItemId i = 0; i < items; ++i) item_start[i + 1] += item_start[i];
  std::vector<db::Timestamp> versions(writes_.size());
  {
    std::vector<uint32_t> fill(item_start.begin(), item_start.end() - 1);
    for (const Write& w : writes_) versions[fill[w.item]++] = w.ts;
  }
  for (db::ItemId i = 0; i < items; ++i) {
    const auto begin = versions.begin() + item_start[i];
    const auto end = versions.begin() + item_start[i + 1];
    std::sort(begin, end);
    for (auto v = begin + (begin != end); v < end; ++v) {
      add(node((v - 1)->txn), node(v->txn), EdgeKind::kWw, i);
    }
  }

  // wr, and rw to the first newer version only; the newer ones after it
  // follow on the ww chain above.
  for (const Read& r : reads_) {
    const uint32_t reader = node(r.reader);
    if (reader == kNoNode) continue;  // aborted reader: no edges
    if (r.version.txn != db::kNoTxn) {
      add(node(r.version.txn), reader, EdgeKind::kWr, r.item);
    }
    if (r.item >= items) continue;
    const auto end = versions.begin() + item_start[r.item + 1];
    const auto newer = std::upper_bound(versions.begin() + item_start[r.item],
                                        end, r.version);
    if (newer != end) add(reader, node(newer->txn), EdgeKind::kRw, r.item);
  }

  // Compressed adjacency: node v's edges are adj[start[v] .. start[v + 1]).
  std::vector<uint32_t> start(n + 1, 0);
  for (const auto& [from, e] : edges) ++start[from + 1];
  for (uint32_t v = 0; v < n; ++v) start[v + 1] += start[v];
  std::vector<Edge> adj(edges.size());
  {
    std::vector<uint32_t> fill(start.begin(), start.end() - 1);
    for (const auto& [from, e] : edges) adj[fill[from]++] = e;
  }

  // Cycle detection: iterative three-colour DFS. A frame's `next` is the
  // index of the edge it follows next, so `next - 1` is the edge it took to
  // the frame above it.
  enum : uint8_t { kWhite, kGray, kBlack };
  std::vector<uint8_t> color(n, kWhite);
  struct Frame {
    uint32_t node;
    uint32_t next;
  };
  std::vector<Frame> stack;
  for (uint32_t root = 0; root < n; ++root) {
    if (color[root] != kWhite) continue;
    color[root] = kGray;
    stack.push_back({root, start[root]});
    while (!stack.empty()) {
      Frame& top = stack.back();
      if (top.next == start[top.node + 1]) {
        color[top.node] = kBlack;
        stack.pop_back();
        continue;
      }
      const Edge& e = adj[top.next++];
      if (color[e.to] == kGray) {
        if (why != nullptr) {
          // The cycle runs from e.to's frame up the gray stack and back.
          size_t first = 0;
          while (stack[first].node != e.to) ++first;
          *why = "MVSG cycle: " + std::to_string(txns[e.to]);
          for (size_t i = first; i < stack.size(); ++i) {
            const Edge& taken = adj[stack[i].next - 1];
            *why += std::string(" -") +
                    kKindName[static_cast<int>(taken.kind)] + "(x" +
                    std::to_string(taken.item) + ")-> " +
                    std::to_string(txns[taken.to]);
          }
        }
        return false;
      }
      if (color[e.to] == kWhite) {
        color[e.to] = kGray;
        stack.push_back({e.to, start[e.to]});
      }
    }
  }
  return true;
}

}  // namespace lazyrep::core
