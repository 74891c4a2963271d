#ifndef LAZYREP_NET_TOPOLOGY_H_
#define LAZYREP_NET_TOPOLOGY_H_

#include <string>
#include <vector>

#include "db/types.h"

namespace lazyrep::net {

/// Parameters for the simulated ATM network (Table 1 of the paper). In the
/// default flat star these describe every link and the single switch; in a
/// geo-hierarchical topology they describe the site access links and the
/// metro switches, while backbone edges carry their own parameters.
struct NetworkParams {
  /// One-way switch latency in seconds (OC-3: 0.004, OC-1: 0.1).
  double latency = 0.004;
  /// Link bandwidth in bits per second (OC-3: 155e6, OC-1: 55e6).
  double bandwidth_bps = 155e6;
};

/// One edge of the topology tree, connecting a child (group or endpoint) to
/// its parent switch. The two directions are independent facilities, so
/// asymmetric links are expressed directly.
struct EdgeParams {
  /// Bandwidth toward the parent (child sends up), bits per second.
  double up_bps = 155e6;
  /// Bandwidth toward the child (parent sends down), bits per second.
  double down_bps = 155e6;
  /// One-way propagation latency of the edge in seconds. Zero-latency edges
  /// (the star's access links) schedule no event for propagation at all,
  /// which keeps the flat star byte-identical to the historical model.
  double latency = 0;
};

/// Declarative description of a topology, parseable from the CLI
/// (`--topology=star` or `--topology=geo:dc=3,metros=2,bb_lat=0.02,...`).
struct TopologySpec {
  enum class Kind { kStar, kGeo };

  Kind kind = Kind::kStar;
  /// Number of datacenters hanging off the backbone (geo only).
  int datacenters = 3;
  /// Metro stars per datacenter (geo only).
  int metros_per_dc = 2;
  /// Backbone edge (datacenter uplink): bandwidth and one-way propagation.
  double backbone_bps = 622e6;
  double backbone_latency = 0.02;
  /// Metro uplink edge (metro switch to datacenter switch).
  double uplink_bps = 155e6;
  double uplink_latency = 0.002;

  /// Parses `star` or `geo:<key=val,...>` (keys: dc, metros, bb_bps, bb_lat,
  /// up_bps, up_lat). Returns false and fills `error` on malformed input.
  bool Parse(const std::string& text, std::string* error);

  /// Checks ranges (counts >= 1, rates/latencies positive). Returns false
  /// and fills `error` with the first problem found.
  bool Validate(std::string* error) const;

  /// Round-trippable rendition, e.g. "geo:dc=3,metros=2,...".
  std::string ToString() const;
};

/// A tree of named switch groups with endpoints at the leaves. Groups are
/// switches (datacenter, metro, or the root); each non-root group and each
/// endpoint connects to its parent through an EdgeParams uplink. The
/// topology is pure description: `Network` instantiates the facilities.
///
/// The flat star is the one-level special case: every endpoint hangs off the
/// root switch, whose switch latency is the paper's one-way ATM latency.
class Topology {
 public:
  static constexpr int kNoGroup = -1;

  struct Group {
    std::string name;
    int parent = kNoGroup;  ///< kNoGroup for the root.
    int depth = 0;          ///< Root is depth 0.
    double switch_latency = 0;
    EdgeParams uplink;  ///< Unused for the root.
  };

  struct Endpoint {
    int parent = 0;  ///< Group the endpoint hangs off.
    EdgeParams uplink;
  };

  /// Creates a topology holding only the root switch.
  explicit Topology(double root_switch_latency = 0);

  /// Adds a switch group under `parent` (a prior group id). Names must be
  /// unique; they are the vocabulary of `--partition=<name>|<name>@AT:DUR`.
  int AddGroup(const std::string& name, int parent, double switch_latency,
               const EdgeParams& uplink);

  /// Adds an endpoint under `parent` and returns its id. Endpoint ids are
  /// dense and allocated in call order, so callers control the numbering:
  /// sites first, auxiliary endpoints (graph site, coordinators) after.
  db::SiteId AddEndpoint(int parent, const EdgeParams& uplink);

  /// Allocates an auxiliary (non-site) endpoint at the root. Replaces the
  /// historical "graph endpoint == num_sites" convention with an explicit
  /// allocation whose id is whatever the topology hands out next.
  db::SiteId AddAuxEndpoint(const EdgeParams& uplink) {
    return AddEndpoint(kRoot, uplink);
  }

  int num_groups() const { return static_cast<int>(groups_.size()); }
  int num_endpoints() const { return static_cast<int>(endpoints_.size()); }
  const Group& group(int id) const { return groups_[id]; }
  const Endpoint& endpoint(db::SiteId id) const { return endpoints_[id]; }
  int max_depth() const { return max_depth_; }

  /// Group id for `name`, or kNoGroup when absent. The root is "root".
  int FindGroup(const std::string& name) const;

  /// Appends every endpoint whose ancestor chain passes through `group`.
  void EndpointsUnder(int group, std::vector<db::SiteId>* out) const;

  /// The group at `depth` on `endpoint`'s path from the root, or kNoGroup
  /// when the endpoint's parent is shallower than `depth`.
  int AncestorAt(db::SiteId endpoint, int depth) const;

  /// Flat star: `endpoints` leaves under one switch with latency
  /// `params.latency`, every link `params.bandwidth_bps` both ways.
  static Topology Star(int endpoints, const NetworkParams& params);

  /// Geo-hierarchical tree per `spec`: root backbone switch, `datacenters`
  /// groups named "dc<i>", each with `metros_per_dc` metro stars named
  /// "dc<i>.m<j>". `num_sites` site endpoints are assigned to metros in
  /// contiguous blocks (site ids stay dense and deterministic). Metro
  /// switches and site access links take their parameters from `params`;
  /// datacenter and root switches reuse `params.latency`.
  static Topology Geo(const TopologySpec& spec, int num_sites,
                      const NetworkParams& params);

  static constexpr int kRoot = 0;

 private:
  std::vector<Group> groups_;
  std::vector<Endpoint> endpoints_;
  int max_depth_ = 0;
};

/// Builds the topology a SystemConfig-style (spec, num_sites, params) triple
/// describes. The single place both config validation and core::System use,
/// so they can never disagree about group names or site placement.
Topology BuildTopology(const TopologySpec& spec, int num_sites,
                       const NetworkParams& params);

/// Datacenter ordinal of each of the first `num_sites` endpoints: the
/// depth-1 ancestor group (the "dc<i>" tier of geo topologies), densified in
/// site order — first distinct group seen becomes ordinal 0, the next 1, and
/// so on. Endpoints with no depth-1 ancestor (a flat star's sites hang
/// directly off the root) all share one ordinal. The trace site map
/// (core/study.cc) and the replay site-mapper both label sites through this,
/// so --by-dc breakdowns of a recorded and a replayed trace agree.
std::vector<uint16_t> DatacenterOrdinals(const Topology& topo, int num_sites);

/// The access edge a NetworkParams describes: symmetric bandwidth and no
/// propagation delay (the switch latency models the one-way hop).
inline EdgeParams AccessEdge(const NetworkParams& params) {
  EdgeParams edge;
  edge.up_bps = params.bandwidth_bps;
  edge.down_bps = params.bandwidth_bps;
  edge.latency = 0;
  return edge;
}

}  // namespace lazyrep::net

#endif  // LAZYREP_NET_TOPOLOGY_H_
