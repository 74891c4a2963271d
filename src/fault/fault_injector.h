#ifndef LAZYREP_FAULT_FAULT_INJECTOR_H_
#define LAZYREP_FAULT_FAULT_INJECTOR_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "db/types.h"
#include "fault/fault_params.h"
#include "sim/event_queue.h"
#include "sim/random.h"
#include "sim/simulation.h"

namespace lazyrep::fault {

/// Deterministic, seed-driven fault scheduler. All fault decisions — per-leg
/// message loss/duplication draws and site crash/recovery instants — come
/// from one private random stream advanced in simulated-event order, so a
/// run with the same SystemConfig (seed included) replays the exact same
/// fault schedule.
///
/// Two crash models, selected by FaultParams::amnesia:
///
///  * Fail-silent (amnesia = false, the default): a down endpoint neither
///    receives nor emits messages (every delivery leg touching it is
///    dropped), but its volatile state — lock tables, in-flight
///    transactions, replica versions — survives the outage intact, and the
///    endpoint resumes the instant its window closes. Protocol reactions
///    are driven entirely by the missing messages. This is an optimistic
///    model (equivalent to instant, free recovery) kept for comparison runs.
///
///  * Amnesia (amnesia = true): a crash destroys the endpoint's volatile
///    state. The injector fires the registered crash hook (the System wipes
///    lock manager, in-flight transactions and WAL append buffers), and when
///    the outage window closes the endpoint enters a *recovering* phase
///    instead of coming straight back: the recovery hook starts a costed log
///    replay, and only FinishRecovery() — called when replay completes —
///    makes the endpoint reachable again. Downtime therefore includes replay
///    time. A second crash while recovering abandons the replay (the hook
///    fires again; recovery restarts at the next window close).
///
/// Scheduled partitions drop every delivery leg crossing an active group
/// boundary; endpoints stay up and lose no state, so healing needs no
/// recovery, only retransmission.
class FaultInjector {
 public:
  /// Called synchronously when an endpoint crashes (amnesia wipe) or when
  /// its recovery should begin (start of costed replay).
  using EndpointHook = std::function<void(int endpoint)>;

  /// `num_endpoints` counts the network endpoints (sites + graph site).
  /// `topology` is required when any scheduled partition names topology
  /// groups; it is only read during construction (label resolution).
  FaultInjector(sim::Simulation* sim, int num_endpoints,
                const FaultParams& params, uint64_t seed,
                const net::Topology* topology = nullptr);
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;
  ~FaultInjector();

  /// Registers the amnesia hooks. Both unset (the default) selects the
  /// legacy fail-silent model with byte-identical event sequences.
  void set_crash_hook(EndpointHook hook) { crash_hook_ = std::move(hook); }
  void set_recovery_hook(EndpointHook hook) {
    recovery_hook_ = std::move(hook);
  }

  /// Schedules the crash plan (MTBF rotation + scripted outages and
  /// partitions). Call once, before the simulation starts stepping.
  void Start();

  /// Ceases all fault activity: cancels pending transitions, heals
  /// partitions, force-revives every endpoint (bypassing the recovery
  /// hooks — in-flight replays abandon on their own) and stops dropping
  /// messages. Called after the measurement window freezes so the post-run
  /// drain converges.
  void Stop();

  /// Network delivery hook. Returns the number of copies that arrive on
  /// `dst`'s incoming link: 0 = dropped (loss, partition, or an endpoint is
  /// down), 1 = normal, 2 = duplicated (payload delivered once).
  int OnDelivery(db::SiteId src, db::SiteId dst);

  /// True while `endpoint` is reachable. Recovering endpoints are not.
  bool IsUp(int endpoint) const { return up_[endpoint]; }

  /// True while `endpoint` is replaying its log after an amnesia crash.
  bool Recovering(int endpoint) const { return recovering_[endpoint]; }

  /// Manual crash/recovery (tests). Idempotent.
  void Crash(int endpoint);
  void Recover(int endpoint);

  /// Completes an amnesia recovery: marks the endpoint up, accounts its
  /// downtime (outage + replay) and resumes its MTBF rotation. No-op if the
  /// recovery was abandoned (re-crash) or the injector stopped.
  void FinishRecovery(int endpoint);

  /// Cumulative downtime of `endpoint` since construction, including the
  /// currently open outage window (up to Now).
  double Downtime(int endpoint) const;

  int num_endpoints() const { return static_cast<int>(up_.size()); }

  // -- statistics (ResetStats clears counters, not downtime) -----------------

  uint64_t messages_dropped() const { return dropped_; }
  uint64_t messages_duplicated() const { return duplicated_; }
  uint64_t crashes() const { return crashes_; }
  /// Deliveries dropped because an active partition separated the pair.
  uint64_t partition_drops() const { return partition_drops_; }
  /// Partition windows that activated.
  uint64_t partitions_activated() const { return partitions_activated_; }
  void ResetStats();

 private:
  /// One scheduled partition, precomputed for O(1) membership tests. Every
  /// endpoint carries an island label; a delivery is dropped while the
  /// partition is active and the two labels differ. The historical
  /// group-vs-rest form uses labels {1, 0}; named topology groups get one
  /// label per island.
  struct Partition {
    std::vector<int> label;  // indexed by endpoint
    bool active = false;
  };

  /// Schedules the next MTBF transition (crash if up, recovery if down).
  void ScheduleMtbfTransition(int endpoint);
  /// True when `endpoint` participates in the MTBF crash rotation.
  bool InMtbfRotation(int endpoint) const;

  sim::Simulation* sim_;
  FaultParams params_;
  sim::RandomStream rng_;
  std::vector<bool> up_;
  std::vector<bool> recovering_;
  /// Accumulated closed-outage downtime + open-outage start per endpoint.
  std::vector<double> downtime_;
  std::vector<double> down_since_;
  /// Pending transition events, cancellable on Stop().
  std::vector<sim::EventId> pending_;
  std::vector<Partition> partitions_;
  EndpointHook crash_hook_;
  EndpointHook recovery_hook_;
  bool stopped_ = false;

  uint64_t dropped_ = 0;
  uint64_t duplicated_ = 0;
  uint64_t crashes_ = 0;
  uint64_t partition_drops_ = 0;
  uint64_t partitions_activated_ = 0;
};

}  // namespace lazyrep::fault

#endif  // LAZYREP_FAULT_FAULT_INJECTOR_H_
