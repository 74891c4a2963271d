#include "net/topology.h"

#include <cstdio>
#include <limits>

#include "core/parse_number.h"
#include "sim/check.h"

namespace lazyrep::net {

namespace {

bool SpecFail(std::string* error, const std::string& why) {
  if (error != nullptr) *error = why;
  return false;
}

}  // namespace

bool TopologySpec::Parse(const std::string& text, std::string* error) {
  if (text == "star") {
    kind = Kind::kStar;
    return true;
  }
  const std::string prefix = "geo:";
  if (text.rfind(prefix, 0) != 0) {
    if (text == "geo") {  // all-defaults geo layout
      kind = Kind::kGeo;
      return true;
    }
    return SpecFail(error, "topology must be 'star' or 'geo:<key=val,...>', "
                           "got '" + text + "'");
  }
  kind = Kind::kGeo;
  std::string body = text.substr(prefix.size());
  size_t pos = 0;
  while (pos < body.size()) {
    size_t comma = body.find(',', pos);
    if (comma == std::string::npos) comma = body.size();
    std::string kv = body.substr(pos, comma - pos);
    pos = comma + 1;
    size_t eq = kv.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == kv.size()) {
      return SpecFail(error, "malformed topology key=value pair '" + kv + "'");
    }
    std::string key = kv.substr(0, eq);
    std::string val = kv.substr(eq + 1);
    // The ranges Validate enforces; a bandwidth of 0 parses and Validate
    // names it.
    constexpr int kMaxInt = std::numeric_limits<int>::max();
    constexpr double kMaxDouble = std::numeric_limits<double>::max();
    const std::string name = "topology key '" + key + "'";
    std::string why;
    bool ok = true;
    if (key == "dc") {
      ok = core::ParseNumber(name, val, 1, kMaxInt, &datacenters, &why);
    } else if (key == "metros") {
      ok = core::ParseNumber(name, val, 1, kMaxInt, &metros_per_dc, &why);
    } else if (key == "bb_bps") {
      ok = core::ParseNumber(name, val, 0.0, kMaxDouble, &backbone_bps, &why);
    } else if (key == "bb_lat") {
      ok = core::ParseNumber(name, val, 0.0, kMaxDouble, &backbone_latency,
                             &why);
    } else if (key == "up_bps") {
      ok = core::ParseNumber(name, val, 0.0, kMaxDouble, &uplink_bps, &why);
    } else if (key == "up_lat") {
      ok = core::ParseNumber(name, val, 0.0, kMaxDouble, &uplink_latency,
                             &why);
    } else {
      return SpecFail(error, "unknown topology key '" + key +
                                 "' (want dc, metros, bb_bps, bb_lat, "
                                 "up_bps, up_lat)");
    }
    if (!ok) return SpecFail(error, why);
  }
  return Validate(error);
}

bool TopologySpec::Validate(std::string* error) const {
  if (kind == Kind::kStar) return true;
  if (datacenters < 1) return SpecFail(error, "geo topology needs dc >= 1");
  if (metros_per_dc < 1) {
    return SpecFail(error, "geo topology needs metros >= 1");
  }
  if (backbone_bps <= 0 || uplink_bps <= 0) {
    return SpecFail(error, "topology bandwidths must be positive");
  }
  if (backbone_latency < 0 || uplink_latency < 0) {
    return SpecFail(error, "topology latencies must be non-negative");
  }
  return true;
}

std::string TopologySpec::ToString() const {
  if (kind == Kind::kStar) return "star";
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "geo:dc=%d,metros=%d,bb_bps=%g,bb_lat=%g,up_bps=%g,up_lat=%g",
                datacenters, metros_per_dc, backbone_bps, backbone_latency,
                uplink_bps, uplink_latency);
  return buf;
}

Topology::Topology(double root_switch_latency) {
  Group root;
  root.name = "root";
  root.parent = kNoGroup;
  root.depth = 0;
  root.switch_latency = root_switch_latency;
  groups_.push_back(std::move(root));
}

int Topology::AddGroup(const std::string& name, int parent,
                       double switch_latency, const EdgeParams& uplink) {
  LAZYREP_CHECK(parent >= 0 && parent < num_groups());
  LAZYREP_CHECK_MSG(FindGroup(name) == kNoGroup,
                    "duplicate topology group name");
  Group g;
  g.name = name;
  g.parent = parent;
  g.depth = groups_[parent].depth + 1;
  g.switch_latency = switch_latency;
  g.uplink = uplink;
  if (g.depth > max_depth_) max_depth_ = g.depth;
  groups_.push_back(std::move(g));
  return num_groups() - 1;
}

db::SiteId Topology::AddEndpoint(int parent, const EdgeParams& uplink) {
  LAZYREP_CHECK(parent >= 0 && parent < num_groups());
  Endpoint e;
  e.parent = parent;
  e.uplink = uplink;
  endpoints_.push_back(e);
  return static_cast<db::SiteId>(num_endpoints() - 1);
}

int Topology::FindGroup(const std::string& name) const {
  for (int i = 0; i < num_groups(); ++i) {
    if (groups_[i].name == name) return i;
  }
  return kNoGroup;
}

void Topology::EndpointsUnder(int group, std::vector<db::SiteId>* out) const {
  for (int e = 0; e < num_endpoints(); ++e) {
    int g = endpoints_[e].parent;
    while (g != kNoGroup) {
      if (g == group) {
        out->push_back(static_cast<db::SiteId>(e));
        break;
      }
      g = groups_[g].parent;
    }
  }
}

int Topology::AncestorAt(db::SiteId endpoint, int depth) const {
  int g = endpoints_[endpoint].parent;
  if (groups_[g].depth < depth) return kNoGroup;
  while (groups_[g].depth > depth) g = groups_[g].parent;
  return g;
}

Topology Topology::Star(int endpoints, const NetworkParams& params) {
  LAZYREP_CHECK(endpoints >= 1);
  Topology topo(params.latency);
  const EdgeParams link = AccessEdge(params);
  for (int i = 0; i < endpoints; ++i) topo.AddEndpoint(kRoot, link);
  return topo;
}

Topology Topology::Geo(const TopologySpec& spec, int num_sites,
                       const NetworkParams& params) {
  std::string error;
  LAZYREP_CHECK_MSG(spec.kind == TopologySpec::Kind::kGeo &&
                        spec.Validate(&error),
                    "invalid geo topology spec");
  Topology topo(params.latency);
  EdgeParams backbone;
  backbone.up_bps = spec.backbone_bps;
  backbone.down_bps = spec.backbone_bps;
  backbone.latency = spec.backbone_latency;
  EdgeParams uplink;
  uplink.up_bps = spec.uplink_bps;
  uplink.down_bps = spec.uplink_bps;
  uplink.latency = spec.uplink_latency;
  const EdgeParams access = AccessEdge(params);

  std::vector<int> metros;
  char name[64];
  for (int d = 0; d < spec.datacenters; ++d) {
    std::snprintf(name, sizeof(name), "dc%d", d);
    int dc = topo.AddGroup(name, kRoot, params.latency, backbone);
    for (int m = 0; m < spec.metros_per_dc; ++m) {
      std::snprintf(name, sizeof(name), "dc%d.m%d", d, m);
      metros.push_back(topo.AddGroup(name, dc, params.latency, uplink));
    }
  }
  // Contiguous blocks: site s lands in metro floor(s * M / N), so ids stay
  // dense, placement is deterministic, and imbalance is at most one site.
  int total_metros = static_cast<int>(metros.size());
  for (int s = 0; s < num_sites; ++s) {
    int m = static_cast<int>(
        (static_cast<long long>(s) * total_metros) / num_sites);
    topo.AddEndpoint(metros[m], access);
  }
  return topo;
}

Topology BuildTopology(const TopologySpec& spec, int num_sites,
                       const NetworkParams& params) {
  if (spec.kind == TopologySpec::Kind::kGeo) {
    return Topology::Geo(spec, num_sites, params);
  }
  return Topology::Star(num_sites, params);
}

std::vector<uint16_t> DatacenterOrdinals(const Topology& topo, int num_sites) {
  std::vector<int> ordinal_of_group;
  std::vector<uint16_t> dc_of_site;
  dc_of_site.reserve(num_sites);
  for (int s = 0; s < num_sites; ++s) {
    int g = topo.AncestorAt(static_cast<db::SiteId>(s), 1);
    size_t i = 0;
    for (; i < ordinal_of_group.size(); ++i) {
      if (ordinal_of_group[i] == g) break;
    }
    if (i == ordinal_of_group.size()) ordinal_of_group.push_back(g);
    dc_of_site.push_back(static_cast<uint16_t>(i));
  }
  return dc_of_site;
}

}  // namespace lazyrep::net
