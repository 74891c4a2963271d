#ifndef LAZYREP_NET_NETWORK_H_
#define LAZYREP_NET_NETWORK_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "db/types.h"
#include "net/topology.h"
#include "sim/facility.h"
#include "sim/inline_function.h"
#include "sim/process.h"
#include "sim/simulation.h"

namespace lazyrep::net {

/// The simulated network, routed over a Topology tree. Every edge is a pair
/// of facilities (up toward the parent switch, down toward the child), so a
/// message occupies each link it crosses for that link's transmission time,
/// pays each switch's store-and-forward latency, and pays each edge's
/// propagation delay.
///
/// The default flat star reproduces the paper's model byte-for-byte: sending
/// occupies the sender's outgoing link once, crosses the single switch
/// (latency), then occupies the receiver's incoming link. Multicast
/// generalizes the star's "outgoing link once, every recipient's incoming
/// link" rule to "every edge once per subtree that contains recipients":
/// the switch tree replicates the packet at the last possible branch point.
///
/// Every direction of every edge is one link in a flat table. A unicast
/// route is walked from the tree on every transfer (up to the two
/// endpoints' lowest common ancestor, then down), so the network keeps no
/// per-(src, dst) state. Multicast bookkeeping lives in pooled per-message
/// nodes, so the steady-state data path performs no allocation.
class Network {
 public:
  /// Faulty-delivery hook, consulted once per delivery leg at the last
  /// switch before the destination. Returns how many copies reach `dst`'s
  /// access link: 0 = the leg is dropped (message loss or a crashed
  /// endpoint), 1 = normal delivery, n > 1 = duplication — each copy
  /// occupies the link, but the transfer completes once, so the payload is
  /// handed to the receiver once. Unset = perfect network. Interior
  /// (backbone) edges never drop: loss is an access-link / endpoint
  /// phenomenon, partitions cut whole subtrees.
  using FaultHook = std::function<int(db::SiteId src, db::SiteId dst)>;

  /// Per-delivery callback. Inline (no heap): one instance is shared by all
  /// legs of a multicast through a pooled per-message node, so captures must
  /// fit the inline budget and stay valid until the last leg resolves.
  using DeliveryFn = sim::InlineFunction<void(db::SiteId)>;

  /// Routes over an explicit topology. `params` keeps the historical
  /// aggregate knobs (TransmitTime estimates use params.bandwidth_bps).
  Network(sim::Simulation* sim, Topology topology, const NetworkParams& params);

  /// Convenience: the paper's flat star with `num_endpoints` leaves.
  Network(sim::Simulation* sim, int num_endpoints, const NetworkParams& params);

  void set_fault_hook(FaultHook hook) { fault_hook_ = std::move(hook); }

  /// Point-to-point transfer of `bytes`; completes at delivery time (or, for
  /// a dropped leg, when the loss occurs at the final switch). Returns true
  /// when the message reached `dst`.
  sim::Task<bool> Transfer(db::SiteId src, db::SiteId dst, size_t bytes);

  /// Multicast `bytes` from `src` to every endpoint in `dsts`. `on_delivered`
  /// runs (in simulated time) as each recipient finishes receiving. Returns
  /// after the sender's access link is released (i.e., after the single
  /// send-side transmission); the climb up the tree and the per-subtree
  /// fan-out continue as spawned processes.
  ///
  /// Not a coroutine itself: the callback is moved into a pooled per-message
  /// node before any coroutine boundary, so the legs perform no per-message
  /// allocation. Callers whose callback captures anything with a non-trivial
  /// destructor (e.g. a shared_ptr) must pass a *named* DeliveryFn via
  /// std::move, never a prvalue lambda: this toolchain's coroutine transform
  /// runs one extra destructor on owning temporaries materialized inside a
  /// co_await expression.
  sim::Task<void> Multicast(db::SiteId src, const std::vector<db::SiteId>& dsts,
                            size_t bytes, DeliveryFn on_delivered);

  /// Seconds to push `bytes` through one reference (access) link.
  double TransmitTime(size_t bytes) const {
    return static_cast<double>(bytes) * 8.0 / params_.bandwidth_bps;
  }

  /// Mean utilization over all links (both directions of every edge).
  double MeanUtilization() const;

  /// Highest per-link utilization.
  double MaxUtilization() const;

  /// Utilization of one direction of the named group's uplink edge (the edge
  /// toward its parent switch). Aborts on an unknown or root group name —
  /// diagnostics and cost-accounting tests only, not a hot path.
  double GroupUpUtilization(const std::string& name) const;
  double GroupDownUtilization(const std::string& name) const;

  /// Total messages delivered (multicast counts one per recipient).
  uint64_t messages_delivered() const { return messages_delivered_; }

  /// Delivery legs dropped by the fault hook.
  uint64_t messages_dropped() const { return messages_dropped_; }

  /// Redundant copies injected by the fault hook (beyond the first).
  uint64_t copies_duplicated() const { return copies_duplicated_; }

  void ResetStats();

  int num_endpoints() const { return topology_.num_endpoints(); }
  const Topology& topology() const { return topology_; }

 private:
  /// One direction of one topology edge, instantiated as a facility, and
  /// one routing step. A route's first link (the sender's access uplink) has
  /// no pre-delay; every later link pays the latency of the switch joining it
  /// to the previous one (always scheduled, even when zero, to keep the flat
  /// star's event sequence unchanged).
  struct Link {
    std::unique_ptr<sim::Facility> facility;
    double bps = 0;
    double pre_delay = 0;
    double propagation = 0;  ///< One-way edge latency; 0 schedules nothing.
  };

  /// Link ids: endpoint e's access edge is 2e (up) and 2e + 1 (down); group
  /// g's uplink edge is 2(E + g) and 2(E + g) + 1, E endpoints. The root
  /// group's pair is unused (no facility).
  static uint32_t UpId(uint32_t edge) { return 2 * edge; }
  static uint32_t DownId(uint32_t edge) { return 2 * edge + 1; }
  uint32_t GroupEdge(int group) const {
    return static_cast<uint32_t>(topology_.num_endpoints() + group);
  }
  const Link& LeafUp(db::SiteId e) const { return links_[UpId(e)]; }
  const Link& LeafDown(db::SiteId e) const { return links_[DownId(e)]; }
  const Link& GroupUp(int g) const { return links_[UpId(GroupEdge(g))]; }
  const Link& GroupDown(int g) const { return links_[DownId(GroupEdge(g))]; }

  /// Per-multicast node: holds the shared delivery callback, the count of
  /// legs still in flight, and the reused (hierarchically grouped) recipient
  /// list. Nodes are recycled through a free list (arena-backed), so
  /// steady-state multicasts allocate nothing.
  struct MulticastNode {
    DeliveryFn on_delivered;
    int legs_in_flight = 0;
    MulticastNode* next_free = nullptr;
    std::vector<db::SiteId> recips;
  };

  void BuildLinks();

  MulticastNode* AcquireNode(DeliveryFn on_delivered, int legs);
  /// Marks one leg done; recycles the node when it was the last.
  void FinishLeg(MulticastNode* node);

  /// Lowest common ancestor group of two endpoints' parents.
  int LcaOf(db::SiteId a, db::SiteId b) const;
  /// Depth of the switch endpoint `e` hangs off.
  int SwitchDepth(db::SiteId e) const {
    return topology_.group(topology_.endpoint(e).parent).depth;
  }

  /// Link `hop` between the access links of the src -> dst route, whose LCA
  /// sits at `lca_depth`: the first `up_hops` are the group uplinks from the
  /// sender's switch up to the LCA, the rest the group downlinks from below
  /// the LCA down to the receiver's switch.
  const Link& InteriorLink(db::SiteId src, db::SiteId dst, int lca_depth,
                           int up_hops, int hop) const;

  /// Arranges node->recips so that, at every switch on the way, recipients
  /// sharing a child subtree are contiguous: first stable-grouped by branch
  /// level (ascending distance of the LCA from the sender's switch), then
  /// recursively by subtree in first-appearance order. Endpoints hanging
  /// directly off a switch are never merged or reordered relative to each
  /// other, which keeps the flat star's per-recipient leg order intact.
  void ArrangeRecips(db::SiteId src, MulticastNode* node);
  void GroupByChild(int group, size_t begin, size_t end, MulticastNode* node);

  /// Spawns one delivery process per child run in recips[begin, end), all of
  /// which branch off `group`.
  void SpawnRuns(int group, size_t begin, size_t end, size_t bytes,
                 db::SiteId src, MulticastNode* node);

  sim::Task<void> MulticastSend(db::SiteId src, size_t bytes,
                                MulticastNode* node);
  /// Carries the message up the sender's ancestor chain, spawning the
  /// subtree fan-outs level by level. Holds one extra leg on `node` so the
  /// recipient list outlives every climb step.
  sim::Process Climb(db::SiteId src, size_t bytes, MulticastNode* node,
                     size_t next);
  /// Delivers down one interior edge, then fans out into the child subtree.
  sim::Process DescendBranch(int child, size_t begin, size_t end, size_t bytes,
                             db::SiteId src, MulticastNode* node);
  /// Final hop of one leg: switch latency, fault fate, access link, deliver.
  sim::Process LeafLeg(db::SiteId dst, size_t bytes, db::SiteId src,
                       MulticastNode* node);

  /// Copies arriving for one delivery leg (1 when no hook is installed).
  int FateOf(db::SiteId src, db::SiteId dst);

  sim::Simulation* sim_;
  Topology topology_;
  NetworkParams params_;
  FaultHook fault_hook_;
  /// Every link, indexed by link id (see UpId/DownId).
  std::vector<Link> links_;
  std::vector<std::unique_ptr<MulticastNode>> node_arena_;
  MulticastNode* free_nodes_ = nullptr;
  /// Shared grouping buffer; only touched synchronously inside Multicast().
  std::vector<db::SiteId> scratch_;
  uint64_t messages_delivered_ = 0;
  uint64_t messages_dropped_ = 0;
  uint64_t copies_duplicated_ = 0;
};

}  // namespace lazyrep::net

#endif  // LAZYREP_NET_NETWORK_H_
