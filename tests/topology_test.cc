// Unit tests for the topology layer: spec parsing, tree construction,
// routed unicast timing, and multicast cost accounting on a two-level tree
// (the uplink is charged once per receiving subtree, asymmetric edge
// directions serialize independently).

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/config.h"
#include "core/study.h"
#include "net/network.h"
#include "net/topology.h"
#include "sim/process.h"
#include "sim/simulation.h"

namespace lazyrep::net {
namespace {

using db::SiteId;
using sim::Process;
using sim::Simulation;

TEST(TopologySpecTest, ParsesStarAndGeo) {
  TopologySpec spec;
  std::string err;
  EXPECT_TRUE(spec.Parse("star", &err));
  EXPECT_EQ(spec.kind, TopologySpec::Kind::kStar);
  EXPECT_EQ(spec.ToString(), "star");

  EXPECT_TRUE(spec.Parse("geo", &err));
  EXPECT_EQ(spec.kind, TopologySpec::Kind::kGeo);

  EXPECT_TRUE(spec.Parse("geo:dc=4,metros=3,bb_lat=0.05,bb_bps=1e9", &err));
  EXPECT_EQ(spec.datacenters, 4);
  EXPECT_EQ(spec.metros_per_dc, 3);
  EXPECT_DOUBLE_EQ(spec.backbone_latency, 0.05);
  EXPECT_DOUBLE_EQ(spec.backbone_bps, 1e9);

  // Round trip: ToString parses back to the same spec.
  TopologySpec again;
  EXPECT_TRUE(again.Parse(spec.ToString(), &err));
  EXPECT_EQ(again.datacenters, spec.datacenters);
  EXPECT_DOUBLE_EQ(again.backbone_latency, spec.backbone_latency);
}

TEST(TopologySpecTest, RejectsMalformedSpecs) {
  TopologySpec spec;
  std::string err;
  EXPECT_FALSE(spec.Parse("ring", &err));
  EXPECT_NE(err.find("star"), std::string::npos) << err;
  EXPECT_FALSE(spec.Parse("geo:dc", &err));
  EXPECT_FALSE(spec.Parse("geo:dc=x", &err));
  EXPECT_FALSE(spec.Parse("geo:warp=9", &err));
  EXPECT_NE(err.find("unknown topology key"), std::string::npos) << err;
  EXPECT_FALSE(spec.Parse("geo:dc=0", &err));
  EXPECT_FALSE(spec.Parse("geo:bb_bps=-1", &err));
  EXPECT_FALSE(spec.Parse("geo:bb_lat=-0.1", &err));
  // Numbers are strict: no wrap into int, no NaN or infinity, no trailing
  // text.
  EXPECT_FALSE(spec.Parse("geo:dc=4294967299,metros=1", &err));
  EXPECT_EQ(err, "bad value for topology key 'dc': '4294967299' "
                 "(out of range)");
  EXPECT_FALSE(spec.Parse("geo:bb_lat=nan", &err));
  EXPECT_EQ(err, "bad value for topology key 'bb_lat': 'nan' "
                 "(not a finite number)");
  EXPECT_FALSE(spec.Parse("geo:up_bps=inf", &err));
  EXPECT_FALSE(spec.Parse("geo:metros=2x", &err));
  EXPECT_FALSE(spec.Parse("geo:bb_bps=0", &err));
  EXPECT_NE(err.find("bandwidths must be positive"), std::string::npos)
      << err;
}

TEST(TopologyTest, StarShape) {
  NetworkParams params;
  Topology topo = Topology::Star(4, params);
  EXPECT_EQ(topo.num_groups(), 1);
  EXPECT_EQ(topo.num_endpoints(), 4);
  EXPECT_EQ(topo.max_depth(), 0);
  EXPECT_EQ(topo.FindGroup("root"), Topology::kRoot);
  for (int e = 0; e < 4; ++e) {
    EXPECT_EQ(topo.endpoint(static_cast<SiteId>(e)).parent, Topology::kRoot);
  }
}

TEST(TopologyTest, GeoShapeAndBlockPlacement) {
  TopologySpec spec;
  spec.kind = TopologySpec::Kind::kGeo;
  spec.datacenters = 2;
  spec.metros_per_dc = 2;
  NetworkParams params;
  Topology topo = Topology::Geo(spec, 6, params);
  // root + 2 DCs + 4 metros.
  EXPECT_EQ(topo.num_groups(), 7);
  EXPECT_EQ(topo.num_endpoints(), 6);
  EXPECT_EQ(topo.max_depth(), 2);
  EXPECT_NE(topo.FindGroup("dc0"), Topology::kNoGroup);
  EXPECT_NE(topo.FindGroup("dc1.m1"), Topology::kNoGroup);
  EXPECT_EQ(topo.FindGroup("dc2"), Topology::kNoGroup);

  // Contiguous block placement: site s -> metro floor(s * 4 / 6).
  std::vector<SiteId> under_dc0;
  topo.EndpointsUnder(topo.FindGroup("dc0"), &under_dc0);
  EXPECT_EQ(under_dc0, (std::vector<SiteId>{0, 1, 2}));
  std::vector<SiteId> under_m3;
  topo.EndpointsUnder(topo.FindGroup("dc1.m1"), &under_m3);
  EXPECT_EQ(under_m3, (std::vector<SiteId>{5}));

  // AncestorAt walks the path from the root.
  int dc1 = topo.FindGroup("dc1");
  EXPECT_EQ(topo.AncestorAt(4, 1), dc1);
  EXPECT_EQ(topo.AncestorAt(4, 2), topo.FindGroup("dc1.m0"));

  // An auxiliary endpoint lands at the root, after the sites.
  SiteId aux = topo.AddAuxEndpoint(AccessEdge(params));
  EXPECT_EQ(aux, 6);
  EXPECT_EQ(topo.endpoint(aux).parent, Topology::kRoot);
  EXPECT_EQ(topo.AncestorAt(aux, 1), Topology::kNoGroup);
}

// -- degenerate shapes: AncestorAt and the densified datacenter map ----------
//
// The trace site map and the replay engine both label sites through
// DatacenterOrdinals; these shapes are the ones where the depth-1 walk has
// no step to take (flat star, single site) or only one answer (one-DC geo).

TEST(TopologyTest, AncestorAtOnDegenerateShapes) {
  NetworkParams params;
  // Single-site star: the lone endpoint hangs off the root; there is no
  // depth-1 tier at all.
  Topology one = Topology::Star(1, params);
  EXPECT_EQ(one.AncestorAt(0, 0), Topology::kRoot);
  EXPECT_EQ(one.AncestorAt(0, 1), Topology::kNoGroup);

  // Flat star: same for every endpoint.
  Topology star = Topology::Star(5, params);
  for (SiteId s = 0; s < 5; ++s) {
    EXPECT_EQ(star.AncestorAt(s, 0), Topology::kRoot) << s;
    EXPECT_EQ(star.AncestorAt(s, 1), Topology::kNoGroup) << s;
  }

  // One-metro geo (dc=1, metros=1): every site's path is root -> dc0 ->
  // dc0.m0, so depths 0/1/2 all resolve and deeper queries fall off the end.
  TopologySpec spec;
  spec.kind = TopologySpec::Kind::kGeo;
  spec.datacenters = 1;
  spec.metros_per_dc = 1;
  Topology geo = Topology::Geo(spec, 3, params);
  int dc0 = geo.FindGroup("dc0");
  int m0 = geo.FindGroup("dc0.m0");
  ASSERT_NE(dc0, Topology::kNoGroup);
  ASSERT_NE(m0, Topology::kNoGroup);
  for (SiteId s = 0; s < 3; ++s) {
    EXPECT_EQ(geo.AncestorAt(s, 0), Topology::kRoot) << s;
    EXPECT_EQ(geo.AncestorAt(s, 1), dc0) << s;
    EXPECT_EQ(geo.AncestorAt(s, 2), m0) << s;
    EXPECT_EQ(geo.AncestorAt(s, 3), Topology::kNoGroup) << s;
  }
}

TEST(TopologyTest, DatacenterOrdinalsDensifyInSiteOrder) {
  NetworkParams params;
  // Flat star and the single site: no depth-1 tier, so every site shares
  // ordinal 0 — a one-"datacenter" world, not an error.
  EXPECT_EQ(DatacenterOrdinals(Topology::Star(1, params), 1),
            (std::vector<uint16_t>{0}));
  EXPECT_EQ(DatacenterOrdinals(Topology::Star(4, params), 4),
            (std::vector<uint16_t>{0, 0, 0, 0}));

  // One-metro geo: a real dc0 group, still one ordinal for everyone.
  TopologySpec one_dc;
  one_dc.kind = TopologySpec::Kind::kGeo;
  one_dc.datacenters = 1;
  one_dc.metros_per_dc = 1;
  EXPECT_EQ(DatacenterOrdinals(Topology::Geo(one_dc, 3, params), 3),
            (std::vector<uint16_t>{0, 0, 0}));

  // Three DCs, contiguous block placement: ordinals follow site order.
  TopologySpec three;
  three.kind = TopologySpec::Kind::kGeo;
  three.datacenters = 3;
  three.metros_per_dc = 1;
  EXPECT_EQ(DatacenterOrdinals(Topology::Geo(three, 6, params), 6),
            (std::vector<uint16_t>{0, 0, 1, 1, 2, 2}));

  // An auxiliary endpoint past num_sites never enters the map: the map
  // covers sites only, exactly what the trace header stores.
  Topology geo = Topology::Geo(three, 6, params);
  geo.AddAuxEndpoint(AccessEdge(params));
  EXPECT_EQ(DatacenterOrdinals(geo, 6).size(), 6u);
}

// -- routed timing on a hand-built two-level tree ----------------------------
/*
        root (switch 0.5 s)
        /                \
   a (0.25 s)         b (0.25 s)
   up/down 8 kb/s     up 8 kb/s, down 4 kb/s   <- asymmetric
    /    \              /    \
   0      1            2      3    access links 8 kb/s both ways
*/
// With 1000-byte (8000-bit) messages: 1 s per 8 kb/s link, 2 s down into b.

Topology TwoLevelTree() {
  Topology topo(/*root_switch_latency=*/0.5);
  EdgeParams sym{/*up_bps=*/8e3, /*down_bps=*/8e3, /*latency=*/0};
  EdgeParams asym{/*up_bps=*/8e3, /*down_bps=*/4e3, /*latency=*/0};
  int a = topo.AddGroup("a", Topology::kRoot, 0.25, sym);
  int b = topo.AddGroup("b", Topology::kRoot, 0.25, asym);
  topo.AddEndpoint(a, sym);
  topo.AddEndpoint(a, sym);
  topo.AddEndpoint(b, sym);
  topo.AddEndpoint(b, sym);
  return topo;
}

Process DoTransfer(Simulation* sim, Network* net, SiteId src, SiteId dst,
                   size_t bytes, double* done_at) {
  co_await net->Transfer(src, dst, bytes);
  *done_at = sim->Now();
}

TEST(RoutedNetworkTest, UnicastPaysEverySwitchAndEdgeOnThePath) {
  Simulation sim;
  NetworkParams params{/*latency=*/0.25, /*bandwidth_bps=*/8e3};
  Network net(&sim, TwoLevelTree(), params);
  double done = -1;
  // 0 -> 2: leaf up (1) | a switch (.25) + a up (1) | root switch (.5) +
  // b down (2, the slow direction) | b switch (.25) + leaf down (1).
  sim.Spawn(DoTransfer(&sim, &net, 0, 2, 1000, &done));
  sim.Run();
  EXPECT_NEAR(done, 1 + 0.25 + 1 + 0.5 + 2 + 0.25 + 1, 1e-12);
  EXPECT_EQ(net.messages_delivered(), 1u);
}

TEST(RoutedNetworkTest, AsymmetricEdgeChargesPerDirection) {
  Simulation sim;
  NetworkParams params{0.25, 8e3};
  Network net(&sim, TwoLevelTree(), params);
  double done = -1;
  // 2 -> 0 crosses b upward at the fast 8 kb/s rate (1 s, not 2): the two
  // directions of an edge are independent facilities.
  sim.Spawn(DoTransfer(&sim, &net, 2, 0, 1000, &done));
  sim.Run();
  EXPECT_NEAR(done, 1 + 0.25 + 1 + 0.5 + 1 + 0.25 + 1, 1e-12);
}

TEST(RoutedNetworkTest, IntraGroupUnicastNeverTouchesTheBackbone) {
  Simulation sim;
  NetworkParams params{0.25, 8e3};
  Network net(&sim, TwoLevelTree(), params);
  double done = -1;
  // 0 -> 1 stays inside metro a: leaf up (1) | a switch (.25) + leaf down (1).
  sim.Spawn(DoTransfer(&sim, &net, 0, 1, 1000, &done));
  sim.Run();
  EXPECT_NEAR(done, 1 + 0.25 + 1, 1e-12);
}

// -- every route against a walk of the tree ----------------------------------

// Arrival time of one `bytes` message from `src` to `dst` on an idle network,
// by walking the tree: the sender's access link; each uplink from the
// sender's switch up to the LCA, after that switch's latency; each downlink
// from below the LCA to the receiver's switch, after its parent switch's
// latency; the receiver's switch latency and access link. Each link adds
// its transmission time, then its propagation, summed in event order.
double WalkArrival(const Topology& topo, SiteId src, SiteId dst,
                   size_t bytes) {
  const double bits = static_cast<double>(bytes) * 8.0;
  auto ancestors = [&topo](SiteId e) {  // parent switch first, root last
    std::vector<int> chain;
    for (int g = topo.endpoint(e).parent; g != Topology::kNoGroup;
         g = topo.group(g).parent) {
      chain.push_back(g);
    }
    return chain;
  };
  std::vector<int> up = ancestors(src);
  std::vector<int> down = ancestors(dst);
  // Strip the shared path above the LCA; both chains then end at the LCA.
  while (up.size() > 1 && down.size() > 1 &&
         up[up.size() - 2] == down[down.size() - 2]) {
    up.pop_back();
    down.pop_back();
  }
  const EdgeParams& access_up = topo.endpoint(src).uplink;
  double t = bits / access_up.up_bps;
  t += access_up.latency;
  for (size_t i = 0; i + 1 < up.size(); ++i) {
    const Topology::Group& g = topo.group(up[i]);
    t += g.switch_latency;
    t += bits / g.uplink.up_bps;
    t += g.uplink.latency;
  }
  for (size_t i = down.size() - 1; i-- > 0;) {
    const Topology::Group& g = topo.group(down[i]);
    t += topo.group(g.parent).switch_latency;
    t += bits / g.uplink.down_bps;
    t += g.uplink.latency;
  }
  const EdgeParams& access_down = topo.endpoint(dst).uplink;
  t += topo.group(topo.endpoint(dst).parent).switch_latency;
  t += bits / access_down.down_bps;
  t += access_down.latency;
  return t;
}

// Every edge gets its own asymmetric bandwidths and latency, and every
// switch its own latency, so a route through a wrong link, or through the
// wrong direction of the right edge, arrives at a different time.
class DistinctEdges {
 public:
  EdgeParams Next() {
    ++n_;
    return EdgeParams{/*up_bps=*/8e3 + 64.0 * n_, /*down_bps=*/4e3 + 32.0 * n_,
                      /*latency=*/1e-3 * n_};
  }
  double NextSwitchLatency() { return 0.01 + 1e-4 * ++n_; }

 private:
  int n_ = 0;
};

// One Transfer per ordered pair, each on a fresh idle network.
void ExpectEveryRouteMatchesWalk(const Topology& topo) {
  constexpr size_t kBytes = 1000;
  const int endpoints = topo.num_endpoints();
  for (SiteId src = 0; src < endpoints; ++src) {
    for (SiteId dst = 0; dst < endpoints; ++dst) {
      Simulation sim;
      Network net(&sim, topo, NetworkParams{});
      double done = -1;
      sim.Spawn(DoTransfer(&sim, &net, src, dst, kBytes, &done));
      sim.Run();
      EXPECT_DOUBLE_EQ(done, WalkArrival(topo, src, dst, kBytes))
          << src << " -> " << dst;
    }
  }
}

TEST(RoutedNetworkTest, EveryStarRouteMatchesATreeWalk) {
  DistinctEdges edges;
  Topology star(edges.NextSwitchLatency());
  for (int i = 0; i < 9; ++i) star.AddEndpoint(Topology::kRoot, edges.Next());
  ExpectEveryRouteMatchesWalk(star);
}

TEST(RoutedNetworkTest, EveryGeoRouteMatchesATreeWalk) {
  // bench_study_geo's layout: 3 datacenters x 2 metros, 24 sites in blocks
  // of 4, then the graph endpoint at the root.
  DistinctEdges edges;
  Topology geo(edges.NextSwitchLatency());
  std::vector<int> metros;
  for (int d = 0; d < 3; ++d) {
    const std::string dc_name = "dc" + std::to_string(d);
    const int dc = geo.AddGroup(dc_name, Topology::kRoot,
                                edges.NextSwitchLatency(), edges.Next());
    for (int m = 0; m < 2; ++m) {
      metros.push_back(geo.AddGroup(dc_name + ".m" + std::to_string(m), dc,
                                    edges.NextSwitchLatency(), edges.Next()));
    }
  }
  for (int s = 0; s < 24; ++s) geo.AddEndpoint(metros[s / 4], edges.Next());
  geo.AddAuxEndpoint(edges.Next());

  // Same tree as the study's, up to the edge parameters.
  TopologySpec spec;
  spec.kind = TopologySpec::Kind::kGeo;
  spec.datacenters = 3;
  spec.metros_per_dc = 2;
  Topology study = Topology::Geo(spec, 24, NetworkParams{});
  study.AddAuxEndpoint(AccessEdge(NetworkParams{}));
  ASSERT_EQ(geo.num_groups(), study.num_groups());
  ASSERT_EQ(geo.num_endpoints(), study.num_endpoints());
  for (int g = 0; g < geo.num_groups(); ++g) {
    EXPECT_EQ(geo.group(g).name, study.group(g).name);
    EXPECT_EQ(geo.group(g).parent, study.group(g).parent);
  }
  for (SiteId e = 0; e < geo.num_endpoints(); ++e) {
    EXPECT_EQ(geo.endpoint(e).parent, study.endpoint(e).parent);
  }

  ExpectEveryRouteMatchesWalk(geo);
}

Process DoMulticast(Network* net, SiteId src, std::vector<SiteId> dsts,
                    size_t bytes, Network::DeliveryFn fn) {
  Network::DeliveryFn moved = std::move(fn);
  co_await net->Multicast(src, dsts, bytes, std::move(moved));
}

TEST(RoutedNetworkTest, MulticastChargesUplinkOncePerReceivingSubtree) {
  Simulation sim;
  NetworkParams params{0.25, 8e3};
  Network net(&sim, TwoLevelTree(), params);
  std::vector<double> arrival(4, -1);
  Network::DeliveryFn record = [&](SiteId dst) { arrival[dst] = sim.Now(); };
  sim.Spawn(DoMulticast(&net, 0, {1, 2, 3}, 1000, std::move(record)));
  sim.Run();
  // Local leg: src access up (1) | a switch (.25) + leaf down (1).
  EXPECT_NEAR(arrival[1], 1 + 0.25 + 1, 1e-12);
  // Remote subtree: the message climbs a's uplink ONCE and descends into b
  // ONCE; both leaves then receive on their own access links in parallel.
  double remote = 1 + 0.25 + 1 + 0.5 + 2 + 0.25 + 1;
  EXPECT_NEAR(arrival[2], remote, 1e-12);
  EXPECT_NEAR(arrival[3], remote, 1e-12);
  EXPECT_EQ(net.messages_delivered(), 3u);
  // The shared edges really carried one transmission each: busy time on a's
  // uplink is 1 s and on b's downlink 2 s, over the 6 s simulation.
  double elapsed = sim.Now();
  EXPECT_NEAR(net.GroupUpUtilization("a") * elapsed, 1.0, 1e-9);
  EXPECT_NEAR(net.GroupDownUtilization("b") * elapsed, 2.0, 1e-9);
}

TEST(RoutedNetworkTest, StarMulticastMatchesHistoricalModel) {
  // On the flat star the routed implementation must behave exactly like the
  // historical one: out-link once, then per-recipient switch + in-link.
  Simulation sim;
  NetworkParams params{/*latency=*/0.1, /*bandwidth_bps=*/1e6};
  Network net(&sim, 4, params);
  std::vector<double> arrival(4, -1);
  Network::DeliveryFn record = [&](SiteId dst) { arrival[dst] = sim.Now(); };
  // 12500 bytes = 0.1 s per link.
  sim.Spawn(DoMulticast(&net, 0, {1, 2, 3}, 12500, std::move(record)));
  sim.Run();
  EXPECT_NEAR(arrival[1], 0.1 + 0.1 + 0.1, 1e-12);
  EXPECT_NEAR(arrival[2], 0.1 + 0.1 + 0.1, 1e-12);
  EXPECT_NEAR(arrival[3], 0.1 + 0.1 + 0.1, 1e-12);
}

// -- end-to-end: a geo system rides out a datacenter partition ---------------

TEST(GeoSystemTest, DcPartitionDropsTrafficAndStaysSerializable) {
  core::SystemConfig c;
  c.num_sites = 9;
  c.workload.items_per_site = 8;
  c.tps = 40;
  c.total_txns = 200;
  c.seed = 17;
  c.topology.kind = TopologySpec::Kind::kGeo;
  c.topology.datacenters = 3;
  c.topology.metros_per_dc = 1;
  fault::ScheduledPartition part;
  part.groups = {"dc0"};
  part.at = 1.0;
  part.duration = 1.5;
  c.fault.partitions.push_back(part);
  c.Normalize();

  std::vector<core::RunSpec> specs = {
      {c, core::ProtocolKind::kOptimistic}};
  std::vector<core::MetricsSnapshot> snaps =
      core::RunAll(specs, /*jobs=*/1, /*check_serializability=*/true);
  ASSERT_EQ(snaps.size(), 1u);
  EXPECT_GT(snaps[0].completed, 0u);
  EXPECT_GT(snaps[0].faults_injected_partition, 0u);
  EXPECT_NE(snaps[0].serializable, 0) << snaps[0].serializability_why;
}

}  // namespace
}  // namespace lazyrep::net
