#include "fault/fault_params.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>

namespace lazyrep::fault {
namespace {

bool Fail(std::string* error, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (error != nullptr) *error = buf;
  return false;
}

bool IsProb(double p) { return p >= 0 && p <= 1; }

}  // namespace

bool FaultParams::Validate(std::string* error) const {
  if (!IsProb(loss_prob)) {
    return Fail(error, "loss_prob %g outside [0,1]", loss_prob);
  }
  if (!IsProb(dup_prob)) {
    return Fail(error, "dup_prob %g outside [0,1]", dup_prob);
  }
  if (site_mtbf < 0) {
    return Fail(error, "site_mtbf %g negative", site_mtbf);
  }
  if (site_mtbf > 0 && site_mttr <= 0) {
    return Fail(error,
                "site_mtbf %g needs site_mttr > 0 (got %g): the crash "
                "rotation draws recovery times from Exp(site_mttr)",
                site_mtbf, site_mttr);
  }
  // Scripted crash windows on one endpoint must not overlap: the injector
  // would interleave crash/recover callbacks in an undefined order.
  std::vector<ScheduledCrash> sorted = crashes;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const ScheduledCrash& a, const ScheduledCrash& b) {
                     if (a.endpoint != b.endpoint) return a.endpoint < b.endpoint;
                     return a.at < b.at;
                   });
  for (size_t i = 0; i < sorted.size(); ++i) {
    const ScheduledCrash& c = sorted[i];
    if (c.endpoint < 0) {
      return Fail(error, "scripted crash endpoint %d negative", c.endpoint);
    }
    if (c.at < 0 || c.duration <= 0) {
      return Fail(error,
                  "scripted crash on endpoint %d has at=%g duration=%g "
                  "(want at >= 0, duration > 0)",
                  c.endpoint, c.at, c.duration);
    }
    if (i > 0 && sorted[i - 1].endpoint == c.endpoint &&
        sorted[i - 1].at + sorted[i - 1].duration > c.at) {
      return Fail(error,
                  "scripted crash windows overlap on endpoint %d: "
                  "[%g, %g) and [%g, %g)",
                  c.endpoint, sorted[i - 1].at,
                  sorted[i - 1].at + sorted[i - 1].duration, c.at,
                  c.at + c.duration);
    }
  }
  for (const ScheduledPartition& part : partitions) {
    if (part.group.empty() && part.groups.empty()) {
      return Fail(error, "scheduled partition at t=%g has an empty group",
                  part.at);
    }
    if (!part.group.empty() && !part.groups.empty()) {
      return Fail(error,
                  "scheduled partition at t=%g mixes endpoint ids and named "
                  "topology groups; pick one spelling",
                  part.at);
    }
    if (part.at < 0 || part.duration <= 0) {
      return Fail(error,
                  "scheduled partition has at=%g duration=%g "
                  "(want at >= 0, duration > 0)",
                  part.at, part.duration);
    }
    for (int e : part.group) {
      if (e < 0) return Fail(error, "partition group endpoint %d negative", e);
    }
    for (const std::string& name : part.groups) {
      if (name.empty()) {
        return Fail(error, "scheduled partition at t=%g names an empty group",
                    part.at);
      }
    }
  }
  if (max_retries < 0) {
    return Fail(error, "max_retries %d negative", max_retries);
  }
  if (rto_initial <= 0 || rto_initial > kRtoMax) {
    return Fail(error,
                "retry policy inconsistent: rto_initial=%g (want 0 < "
                "rto_initial <= %g, the timeout cap)",
                rto_initial, kRtoMax);
  }
  if (amnesia) {
    if (checkpoint_interval <= 0) {
      return Fail(error, "amnesia needs checkpoint_interval > 0 (got %g)",
                  checkpoint_interval);
    }
  }
  return true;
}

bool FaultParams::Validate(const net::Topology& topology,
                           std::string* error) const {
  if (!Validate(error)) return false;
  const int num_endpoints = topology.num_endpoints();
  for (const ScheduledCrash& c : crashes) {
    if (c.endpoint >= num_endpoints) {
      return Fail(error,
                  "scripted crash endpoint %d outside topology (%d endpoints)",
                  c.endpoint, num_endpoints);
    }
  }
  std::vector<char> claimed(num_endpoints, 0);
  std::vector<db::SiteId> members;
  for (const ScheduledPartition& part : partitions) {
    std::fill(claimed.begin(), claimed.end(), 0);
    for (int e : part.group) {
      if (e >= num_endpoints) {
        return Fail(error,
                    "partition endpoint %d outside topology (%d endpoints)", e,
                    num_endpoints);
      }
      if (claimed[e]) {
        return Fail(error, "partition at t=%g lists endpoint %d twice",
                    part.at, e);
      }
      claimed[e] = 1;
    }
    for (const std::string& name : part.groups) {
      int g = topology.FindGroup(name);
      if (g == net::Topology::kNoGroup) {
        return Fail(error,
                    "partition at t=%g names unknown topology group '%s'",
                    part.at, name.c_str());
      }
      members.clear();
      topology.EndpointsUnder(g, &members);
      if (members.empty()) {
        return Fail(error,
                    "partition at t=%g: topology group '%s' has no endpoints",
                    part.at, name.c_str());
      }
      for (db::SiteId e : members) {
        if (claimed[e]) {
          return Fail(error,
                      "partition at t=%g has overlapping halves: endpoint %d "
                      "is in '%s' and another island",
                      part.at, static_cast<int>(e), name.c_str());
        }
        claimed[e] = 1;
      }
    }
  }
  return true;
}

}  // namespace lazyrep::fault
