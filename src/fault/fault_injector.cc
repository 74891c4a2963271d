#include "fault/fault_injector.h"

#include <string>

#include "sim/check.h"

namespace lazyrep::fault {

FaultInjector::FaultInjector(sim::Simulation* sim, int num_endpoints,
                             const FaultParams& params, uint64_t seed,
                             const net::Topology* topology)
    : sim_(sim),
      params_(params),
      rng_(seed),
      up_(num_endpoints, true),
      recovering_(num_endpoints, false),
      downtime_(num_endpoints, 0),
      down_since_(num_endpoints, 0),
      pending_(num_endpoints) {
  LAZYREP_CHECK(num_endpoints >= 1);
  std::string error;
  LAZYREP_CHECK_MSG(topology != nullptr ? params_.Validate(*topology, &error)
                                        : params_.Validate(&error),
                    error.c_str());
  partitions_.reserve(params_.partitions.size());
  std::vector<db::SiteId> members;
  for (const ScheduledPartition& sp : params_.partitions) {
    Partition p;
    p.label.assign(num_endpoints, 0);
    for (int e : sp.group) {
      LAZYREP_CHECK(e >= 0 && e < num_endpoints);
      p.label[e] = 1;
    }
    int next_label = 1;
    for (const std::string& name : sp.groups) {
      LAZYREP_CHECK_MSG(topology != nullptr,
                        "named partition groups need a topology");
      int g = topology->FindGroup(name);
      LAZYREP_CHECK_MSG(g != net::Topology::kNoGroup,
                        "unknown topology group in partition");
      members.clear();
      topology->EndpointsUnder(g, &members);
      for (db::SiteId e : members) {
        LAZYREP_CHECK(e < num_endpoints);
        p.label[e] = next_label;
      }
      ++next_label;
    }
    partitions_.push_back(std::move(p));
  }
}

FaultInjector::~FaultInjector() { Stop(); }

void FaultInjector::Start() {
  for (const ScheduledCrash& c : params_.crashes) {
    LAZYREP_CHECK(c.endpoint >= 0 && c.endpoint < num_endpoints());
    int e = c.endpoint;
    pending_.push_back(
        sim_->ScheduleCallbackAt(c.at, [this, e] { Crash(e); }));
    pending_.push_back(sim_->ScheduleCallbackAt(c.at + c.duration,
                                                [this, e] { Recover(e); }));
  }
  for (size_t i = 0; i < partitions_.size(); ++i) {
    const ScheduledPartition& sp = params_.partitions[i];
    pending_.push_back(sim_->ScheduleCallbackAt(sp.at, [this, i] {
      partitions_[i].active = true;
      ++partitions_activated_;
    }));
    pending_.push_back(sim_->ScheduleCallbackAt(
        sp.at + sp.duration, [this, i] { partitions_[i].active = false; }));
  }
  if (params_.site_mtbf > 0) {
    // The graph site is the last endpoint; it crashes only when asked for.
    int crashable = num_endpoints() - (params_.crash_graph_site ? 0 : 1);
    for (int e = 0; e < crashable; ++e) {
      ScheduleMtbfTransition(e);
    }
  }
}

bool FaultInjector::InMtbfRotation(int endpoint) const {
  if (params_.site_mtbf <= 0) return false;
  int crashable = num_endpoints() - (params_.crash_graph_site ? 0 : 1);
  return endpoint < crashable;
}

void FaultInjector::ScheduleMtbfTransition(int endpoint) {
  // A scripted outage can restart the rotation (via FinishRecovery) while
  // the rotation's previous draw is still scheduled. Overwriting the slot
  // would orphan that event: Stop() could no longer cancel it and it would
  // fire a crash into the post-measurement drain. Cancel-before-overwrite
  // keeps the invariant of at most one live rotation event per endpoint.
  sim_->Cancel(pending_[endpoint]);
  double mean = up_[endpoint] ? params_.site_mtbf : params_.site_mttr;
  double at = sim_->Now() + rng_.Exponential(mean);
  pending_[endpoint] = sim_->ScheduleCallbackAt(at, [this, endpoint] {
    if (up_[endpoint]) {
      Crash(endpoint);
      ScheduleMtbfTransition(endpoint);
    } else {
      Recover(endpoint);
      // With a recovery hook the endpoint is now *recovering*; its rotation
      // parks until FinishRecovery. Without one (fail-silent), this is the
      // legacy flow with an identical draw sequence.
      if (!recovering_[endpoint]) ScheduleMtbfTransition(endpoint);
    }
  });
}

void FaultInjector::Stop() {
  if (stopped_) return;
  stopped_ = true;
  for (sim::EventId id : pending_) sim_->Cancel(id);
  pending_.clear();
  for (Partition& p : partitions_) p.active = false;
  // Force-revive without the hooks: replays in flight notice the cleared
  // recovering flag and abandon; drain mode needs every endpoint reachable.
  for (int e = 0; e < num_endpoints(); ++e) {
    recovering_[e] = false;
    if (!up_[e]) {
      up_[e] = true;
      downtime_[e] += sim_->Now() - down_since_[e];
    }
  }
}

void FaultInjector::Crash(int endpoint) {
  if (stopped_) return;  // drain mode: no new outages, ever
  if (!up_[endpoint]) {
    // A crash while recovering abandons the replay: the wipe fires again
    // (idempotent) and the endpoint waits for its next recovery trigger.
    if (recovering_[endpoint]) {
      recovering_[endpoint] = false;
      ++crashes_;
      if (crash_hook_) crash_hook_(endpoint);
    }
    return;
  }
  up_[endpoint] = false;
  down_since_[endpoint] = sim_->Now();
  ++crashes_;
  if (crash_hook_) crash_hook_(endpoint);
}

void FaultInjector::Recover(int endpoint) {
  if (stopped_) return;  // Stop() already force-revived everything
  if (up_[endpoint] || recovering_[endpoint]) return;
  if (recovery_hook_) {
    recovering_[endpoint] = true;
    recovery_hook_(endpoint);  // starts the costed replay; stays down
    return;
  }
  up_[endpoint] = true;
  downtime_[endpoint] += sim_->Now() - down_since_[endpoint];
}

void FaultInjector::FinishRecovery(int endpoint) {
  if (stopped_ || !recovering_[endpoint]) return;
  recovering_[endpoint] = false;
  up_[endpoint] = true;
  downtime_[endpoint] += sim_->Now() - down_since_[endpoint];
  if (InMtbfRotation(endpoint)) ScheduleMtbfTransition(endpoint);
}

double FaultInjector::Downtime(int endpoint) const {
  double dt = downtime_[endpoint];
  if (!up_[endpoint]) dt += sim_->Now() - down_since_[endpoint];
  return dt;
}

int FaultInjector::OnDelivery(db::SiteId src, db::SiteId dst) {
  if (stopped_) return 1;  // post-measurement drain: deliver everything
  if (!up_[src] || !up_[dst]) {
    ++dropped_;
    return 0;
  }
  for (const Partition& p : partitions_) {
    if (p.active && p.label[src] != p.label[dst]) {
      ++dropped_;
      ++partition_drops_;
      return 0;
    }
  }
  if (params_.loss_prob > 0 && rng_.Chance(params_.loss_prob)) {
    ++dropped_;
    return 0;
  }
  if (params_.dup_prob > 0 && rng_.Chance(params_.dup_prob)) {
    ++duplicated_;
    return 2;
  }
  return 1;
}

void FaultInjector::ResetStats() {
  dropped_ = 0;
  duplicated_ = 0;
  crashes_ = 0;
  partition_drops_ = 0;
  partitions_activated_ = 0;
}

}  // namespace lazyrep::fault
