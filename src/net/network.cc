#include "net/network.h"

#include <algorithm>
#include <string>
#include <utility>

#include "sim/check.h"

namespace lazyrep::net {

Network::Network(sim::Simulation* sim, Topology topology,
                 const NetworkParams& params)
    : sim_(sim), topology_(std::move(topology)), params_(params) {
  LAZYREP_CHECK(topology_.num_endpoints() >= 1);
  BuildLinks();
}

Network::Network(sim::Simulation* sim, int num_endpoints,
                 const NetworkParams& params)
    : Network(sim, Topology::Star(num_endpoints, params), params) {}

void Network::BuildLinks() {
  const int endpoints = topology_.num_endpoints();
  links_.resize(2 * (static_cast<size_t>(endpoints) + topology_.num_groups()));
  for (int i = 0; i < endpoints; ++i) {
    const Topology::Endpoint& ep = topology_.endpoint(i);
    Link& up = links_[UpId(i)];
    up.facility = std::make_unique<sim::Facility>(
        sim_, "out_link_" + std::to_string(i));
    up.bps = ep.uplink.up_bps;
    up.propagation = ep.uplink.latency;
    Link& down = links_[DownId(i)];
    down.facility = std::make_unique<sim::Facility>(
        sim_, "in_link_" + std::to_string(i));
    down.bps = ep.uplink.down_bps;
    down.pre_delay = topology_.group(ep.parent).switch_latency;
    down.propagation = ep.uplink.latency;
  }
  for (int g = 1; g < topology_.num_groups(); ++g) {
    const Topology::Group& group = topology_.group(g);
    Link& up = links_[UpId(GroupEdge(g))];
    up.facility = std::make_unique<sim::Facility>(sim_, "up_" + group.name);
    up.bps = group.uplink.up_bps;
    up.pre_delay = group.switch_latency;
    up.propagation = group.uplink.latency;
    Link& down = links_[DownId(GroupEdge(g))];
    down.facility = std::make_unique<sim::Facility>(sim_, "down_" + group.name);
    down.bps = group.uplink.down_bps;
    down.pre_delay = topology_.group(group.parent).switch_latency;
    down.propagation = group.uplink.latency;
  }
}

int Network::LcaOf(db::SiteId a, db::SiteId b) const {
  int x = topology_.endpoint(a).parent;
  int y = topology_.endpoint(b).parent;
  while (topology_.group(x).depth > topology_.group(y).depth) {
    x = topology_.group(x).parent;
  }
  while (topology_.group(y).depth > topology_.group(x).depth) {
    y = topology_.group(y).parent;
  }
  while (x != y) {
    x = topology_.group(x).parent;
    y = topology_.group(y).parent;
  }
  return x;
}

int Network::FateOf(db::SiteId src, db::SiteId dst) {
  if (!fault_hook_) return 1;
  int copies = fault_hook_(src, dst);
  if (copies == 0) {
    ++messages_dropped_;
  } else if (copies > 1) {
    copies_duplicated_ += copies - 1;
  }
  return copies;
}

sim::Task<bool> Network::Transfer(db::SiteId src, db::SiteId dst,
                                  size_t bytes) {
  // The route is walked from the tree, one link per hop: hop 0 is the
  // sender's access uplink, hops 1 to last - 1 are the group uplinks up to
  // the LCA and then the group downlinks below it top-down, and the last hop
  // is the receiver's access downlink, where the fault hook decides how many
  // copies arrive. Only small integers and the current link live across the
  // awaits, and one Use site serves every hop, so the frame stays small.
  const double bits = static_cast<double>(bytes) * 8.0;
  const int lca_depth = topology_.group(LcaOf(src, dst)).depth;
  const int up_hops = SwitchDepth(src) - lca_depth;
  const int last = up_hops + SwitchDepth(dst) - lca_depth + 1;
  for (int hop = 0; hop <= last; ++hop) {
    const Link* link =
        hop == 0      ? &LeafUp(src)
        : hop == last ? &LeafDown(dst)
                      : &InteriorLink(src, dst, lca_depth, up_hops, hop - 1);
    if (hop > 0) co_await sim_->Delay(link->pre_delay);
    int copies = 1;
    if (hop == last) {
      copies = FateOf(src, dst);
      if (copies == 0) co_return false;  // lost at the final switch
    }
    for (int i = 0; i < copies; ++i) {
      co_await link->facility->Use(bits / link->bps);
    }
    if (link->propagation > 0) co_await sim_->Delay(link->propagation);
  }
  ++messages_delivered_;
  co_return true;
}

const Network::Link& Network::InteriorLink(db::SiteId src, db::SiteId dst,
                                           int lca_depth, int up_hops,
                                           int hop) const {
  if (hop < up_hops) {
    // The uplink of the sender's ancestor `hop` levels above its switch.
    return GroupUp(topology_.AncestorAt(src, SwitchDepth(src) - hop));
  }
  // The downlink of the receiver's ancestor `hop - up_hops + 1` levels below
  // the LCA.
  return GroupDown(topology_.AncestorAt(dst, lca_depth + 1 + hop - up_hops));
}

Network::MulticastNode* Network::AcquireNode(DeliveryFn on_delivered,
                                             int legs) {
  MulticastNode* node = free_nodes_;
  if (node != nullptr) {
    free_nodes_ = node->next_free;
    node->next_free = nullptr;
  } else {
    node_arena_.push_back(std::make_unique<MulticastNode>());
    node = node_arena_.back().get();
  }
  node->on_delivered = std::move(on_delivered);
  node->legs_in_flight = legs;
  return node;
}

void Network::FinishLeg(MulticastNode* node) {
  if (--node->legs_in_flight == 0) {
    node->on_delivered.Reset();
    node->next_free = free_nodes_;
    free_nodes_ = node;
  }
}

void Network::ArrangeRecips(db::SiteId src, MulticastNode* node) {
  std::vector<db::SiteId>& recips = node->recips;
  const size_t n = recips.size();
  if (n <= 1) return;
  if (scratch_.size() < n) scratch_.resize(n);
  const int src_switch = topology_.endpoint(src).parent;
  const int src_depth = topology_.group(src_switch).depth;
  bool multilevel = false;
  for (size_t i = 0; i < n && !multilevel; ++i) {
    multilevel = LcaOf(src, recips[i]) != src_switch;
  }
  if (multilevel) {
    // Stable-group by branch level, ascending: the climb spawns fan-outs in
    // that order. In the flat star every recipient branches at level 0, so
    // this pass (and the reorder it implies) never runs there.
    size_t out = 0;
    for (int depth = src_depth; out < n; --depth) {
      LAZYREP_CHECK(depth >= 0);
      for (size_t i = 0; i < n; ++i) {
        if (topology_.group(LcaOf(src, recips[i])).depth == depth) {
          scratch_[out++] = recips[i];
        }
      }
    }
    std::copy(scratch_.begin(), scratch_.begin() + n, recips.begin());
  }
  size_t begin = 0;
  while (begin < n) {
    const int lca = LcaOf(src, recips[begin]);
    size_t end = begin;
    while (end < n && LcaOf(src, recips[end]) == lca) ++end;
    GroupByChild(lca, begin, end, node);
    begin = end;
  }
}

void Network::GroupByChild(int group, size_t begin, size_t end,
                           MulticastNode* node) {
  if (end - begin <= 1) return;
  std::vector<db::SiteId>& recips = node->recips;
  const int child_depth = topology_.group(group).depth + 1;
  // Stable first-appearance grouping into the scratch buffer. Endpoints
  // hanging directly off this switch (AncestorAt == kNoGroup) are their own
  // singleton legs and keep their relative order — exactly the star's
  // per-recipient spawn order when the tree is one level deep.
  size_t out = 0;
  for (size_t i = begin; i < end; ++i) {
    const int child = topology_.AncestorAt(recips[i], child_depth);
    if (child == Topology::kNoGroup) {
      scratch_[out++] = recips[i];
      continue;
    }
    bool seen = false;
    for (size_t j = begin; j < i && !seen; ++j) {
      seen = topology_.AncestorAt(recips[j], child_depth) == child;
    }
    if (seen) continue;
    for (size_t j = i; j < end; ++j) {
      if (topology_.AncestorAt(recips[j], child_depth) == child) {
        scratch_[out++] = recips[j];
      }
    }
  }
  LAZYREP_CHECK(out == end - begin);
  std::copy(scratch_.begin(), scratch_.begin() + out, recips.begin() + begin);
  // Recurse into every interior run to group the next level down.
  size_t i = begin;
  while (i < end) {
    const int child = topology_.AncestorAt(recips[i], child_depth);
    if (child == Topology::kNoGroup) {
      ++i;
      continue;
    }
    size_t j = i + 1;
    while (j < end &&
           topology_.AncestorAt(recips[j], child_depth) == child) {
      ++j;
    }
    GroupByChild(child, i, j, node);
    i = j;
  }
}

void Network::SpawnRuns(int group, size_t begin, size_t end, size_t bytes,
                        db::SiteId src, MulticastNode* node) {
  const int child_depth = topology_.group(group).depth + 1;
  size_t i = begin;
  while (i < end) {
    const db::SiteId r = node->recips[i];
    const int child = topology_.AncestorAt(r, child_depth);
    if (child == Topology::kNoGroup) {
      sim_->Spawn(LeafLeg(r, bytes, src, node));
      ++i;
      continue;
    }
    size_t j = i + 1;
    while (j < end &&
           topology_.AncestorAt(node->recips[j], child_depth) == child) {
      ++j;
    }
    sim_->Spawn(DescendBranch(child, i, j, bytes, src, node));
    i = j;
  }
}

sim::Task<void> Network::MulticastSend(db::SiteId src, size_t bytes,
                                       MulticastNode* node) {
  // The switch tree replicates the packet: the sender's access link carries
  // the message exactly once, then every edge toward a receiving subtree
  // carries it once.
  const Link& up = LeafUp(src);
  co_await up.facility->Use(static_cast<double>(bytes) * 8.0 / up.bps);
  if (node == nullptr) co_return;
  if (up.propagation > 0) co_await sim_->Delay(up.propagation);
  const int src_switch = topology_.endpoint(src).parent;
  const size_t n = node->recips.size();
  size_t level0 = 0;
  while (level0 < n && LcaOf(src, node->recips[level0]) == src_switch) {
    ++level0;
  }
  SpawnRuns(src_switch, 0, level0, bytes, src, node);
  if (level0 < n) {
    ++node->legs_in_flight;  // the climb keeps the node alive
    sim_->Spawn(Climb(src, bytes, node, level0));
  }
}

sim::Process Network::Climb(db::SiteId src, size_t bytes, MulticastNode* node,
                            size_t next) {
  int group = topology_.endpoint(src).parent;
  const size_t n = node->recips.size();
  size_t i = next;
  while (i < n) {
    LAZYREP_CHECK(topology_.group(group).parent != Topology::kNoGroup);
    const Link& up = GroupUp(group);
    co_await sim_->Delay(up.pre_delay);
    co_await up.facility->Use(static_cast<double>(bytes) * 8.0 / up.bps);
    if (up.propagation > 0) co_await sim_->Delay(up.propagation);
    group = topology_.group(group).parent;
    size_t end = i;
    while (end < n && LcaOf(src, node->recips[end]) == group) ++end;
    SpawnRuns(group, i, end, bytes, src, node);
    i = end;
  }
  FinishLeg(node);
}

sim::Process Network::DescendBranch(int child, size_t begin, size_t end,
                                    size_t bytes, db::SiteId src,
                                    MulticastNode* node) {
  const Link& down = GroupDown(child);
  co_await sim_->Delay(down.pre_delay);
  co_await down.facility->Use(static_cast<double>(bytes) * 8.0 / down.bps);
  if (down.propagation > 0) co_await sim_->Delay(down.propagation);
  SpawnRuns(child, begin, end, bytes, src, node);
}

sim::Process Network::LeafLeg(db::SiteId dst, size_t bytes, db::SiteId src,
                              MulticastNode* node) {
  const Link& down = LeafDown(dst);
  co_await sim_->Delay(down.pre_delay);
  int copies = FateOf(src, dst);
  if (copies > 0) {
    const double tx = static_cast<double>(bytes) * 8.0 / down.bps;
    for (int i = 0; i < copies; ++i) {
      co_await down.facility->Use(tx);
    }
    if (down.propagation > 0) co_await sim_->Delay(down.propagation);
    ++messages_delivered_;
    if (node->on_delivered) node->on_delivered(dst);
  }
  FinishLeg(node);
}

sim::Task<void> Network::Multicast(db::SiteId src,
                                   const std::vector<db::SiteId>& dsts,
                                   size_t bytes, DeliveryFn on_delivered) {
  MulticastNode* node = nullptr;
  if (!dsts.empty()) {
    node = AcquireNode(std::move(on_delivered), static_cast<int>(dsts.size()));
    node->recips.assign(dsts.begin(), dsts.end());
    ArrangeRecips(src, node);
  }
  return MulticastSend(src, bytes, node);
}

double Network::MeanUtilization() const {
  // Leaf up-links first, then leaf down-links, then interior edges: the same
  // summation order (hence the same floating-point sum) as the historical
  // flat star, which had no interior edges.
  const int endpoints = topology_.num_endpoints();
  double sum = 0;
  int links = 0;
  for (db::SiteId e = 0; e < endpoints; ++e) {
    sum += LeafUp(e).facility->Utilization();
    ++links;
  }
  for (db::SiteId e = 0; e < endpoints; ++e) {
    sum += LeafDown(e).facility->Utilization();
    ++links;
  }
  for (int g = 1; g < topology_.num_groups(); ++g) {
    sum += GroupUp(g).facility->Utilization();
    sum += GroupDown(g).facility->Utilization();
    links += 2;
  }
  return sum / static_cast<double>(links);
}

double Network::GroupUpUtilization(const std::string& name) const {
  const int g = topology_.FindGroup(name);
  LAZYREP_CHECK_MSG(g > 0, "unknown or root topology group");
  return GroupUp(g).facility->Utilization();
}

double Network::GroupDownUtilization(const std::string& name) const {
  const int g = topology_.FindGroup(name);
  LAZYREP_CHECK_MSG(g > 0, "unknown or root topology group");
  return GroupDown(g).facility->Utilization();
}

double Network::MaxUtilization() const {
  const int endpoints = topology_.num_endpoints();
  double mx = 0;
  for (db::SiteId e = 0; e < endpoints; ++e) {
    mx = std::max(mx, LeafUp(e).facility->Utilization());
  }
  for (db::SiteId e = 0; e < endpoints; ++e) {
    mx = std::max(mx, LeafDown(e).facility->Utilization());
  }
  for (int g = 1; g < topology_.num_groups(); ++g) {
    mx = std::max(mx, GroupUp(g).facility->Utilization());
    mx = std::max(mx, GroupDown(g).facility->Utilization());
  }
  return mx;
}

void Network::ResetStats() {
  for (Link& link : links_) {
    if (link.facility != nullptr) link.facility->ResetStats();
  }
  messages_delivered_ = 0;
  messages_dropped_ = 0;
  copies_duplicated_ = 0;
}

}  // namespace lazyrep::net
