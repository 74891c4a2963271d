#ifndef LAZYREP_FAULT_RELIABLE_CHANNEL_H_
#define LAZYREP_FAULT_RELIABLE_CHANNEL_H_

#include <cstdint>
#include <functional>

#include "db/types.h"
#include "fault/fault_params.h"
#include "net/network.h"
#include "sim/process.h"
#include "sim/simulation.h"

namespace lazyrep::fault {

/// Retries without bound (post-commit / cleanup traffic that must eventually
/// be delivered).
inline constexpr int kRetryForever = -1;

/// Positive-acknowledgement reliable messaging over the lossy network: every
/// payload is answered by an ack; a lost payload or lost ack triggers
/// retransmission after an exponentially backed-off timeout (rto_initial,
/// times kRtoBackoff per retry, capped at kRtoMax). The channel prices
/// broken delivery and nothing else: the payload is handed to the caller
/// exactly once, when Send resolves true, so receiver dedup is structural —
/// a redundant copy costs link occupancy and receive CPU, and no state.
///
/// Two retry regimes:
///  * capped (`max_retries` >= 0): pre-commit control traffic. Exhausting the
///    budget resolves false and the caller aborts the transaction with an
///    unavailability cause instead of hanging.
///  * kRetryForever: post-commit traffic (replica propagation, completion and
///    abort notices). Idempotent, so the sender retransmits until delivery.
class ReliableChannel {
 public:
  /// Charges message-handling CPU at `endpoint` (the System supplies this and
  /// skips the graph endpoint, which accounts its own message costs).
  using ChargeFn = std::function<sim::Task<void>(db::SiteId endpoint)>;

  ReliableChannel(sim::Simulation* sim, net::Network* net,
                  const FaultParams& params, size_t ack_bytes);
  ReliableChannel(const ReliableChannel&) = delete;
  ReliableChannel& operator=(const ReliableChannel&) = delete;

  void set_charge(ChargeFn fn) { charge_ = std::move(fn); }

  /// Sends `bytes` from -> to and waits for the ack. Resolves true once
  /// acked; false when a capped retry budget is exhausted. The caller charges
  /// send/receive CPU for the successful attempt (exactly as the unreliable
  /// path does); the channel charges the overhead of retransmissions —
  /// re-send CPU at the sender, dedup CPU for redundantly delivered copies.
  sim::Task<bool> Send(db::SiteId from, db::SiteId to, size_t bytes,
                       int max_retries);

  // -- statistics ------------------------------------------------------------

  /// Payload retransmissions (attempts beyond each message's first).
  uint64_t retransmissions() const { return retransmissions_; }
  /// Sends that exhausted a capped retry budget.
  uint64_t send_failures() const { return send_failures_; }
  /// Sends that resolved true.
  uint64_t delivered() const { return delivered_; }
  void ResetStats();

 private:
  sim::Task<void> Charge(db::SiteId endpoint);

  sim::Simulation* sim_;
  net::Network* net_;
  ChargeFn charge_;
  size_t ack_bytes_;
  double rto_initial_;

  uint64_t retransmissions_ = 0;
  uint64_t send_failures_ = 0;
  uint64_t delivered_ = 0;
};

}  // namespace lazyrep::fault

#endif  // LAZYREP_FAULT_RELIABLE_CHANNEL_H_
