#ifndef LAZYREP_FAULT_RELIABLE_CHANNEL_H_
#define LAZYREP_FAULT_RELIABLE_CHANNEL_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "db/types.h"
#include "fault/fault_params.h"
#include "net/network.h"
#include "sim/process.h"
#include "sim/simulation.h"

namespace lazyrep::fault {

/// Retries without bound (post-commit / cleanup traffic that must eventually
/// be delivered).
inline constexpr int kRetryForever = -1;

/// Positive-acknowledgement reliable messaging over the lossy star network:
/// every payload is answered by an ack; a lost payload or lost ack triggers
/// retransmission after an exponentially backed-off timeout. Receivers dedup
/// retransmitted payloads by per-flow sequence number — modeled by handing
/// the payload to the caller exactly once (when Send resolves true) while
/// every delivered copy still pays link occupancy and receive-CPU cost.
/// A flow's delivered numbers are kept as a window: a watermark below which
/// every number arrived, plus the sorted numbers above it that arrived past
/// a gap (a lost copy being retransmitted, or numbers the receiver forgot in
/// a crash). The answers are those of a set of every delivered number; after
/// a flow's first copy, recording one allocates only to grow that list.
///
/// Sequence numbers are qualified by the sender's *incarnation*: an amnesia
/// crash wipes both the receiver's delivered-seq windows and the crashed
/// sender's counters (OnEndpointCrash), and bumps the endpoint's incarnation
/// so its restarted counters — which begin again at zero — are never
/// mistaken for duplicates of pre-crash traffic.
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

  /// Amnesia-crash hook: wipes the crashed endpoint's volatile messaging
  /// state — its receiver dedup windows and its sender sequence counters —
  /// and bumps its incarnation. Pure bookkeeping: schedules no events, draws
  /// no randomness, so legacy (non-amnesia) runs are unaffected.
  void OnEndpointCrash(db::SiteId endpoint);

  /// Current incarnation of `endpoint` (number of amnesia crashes).
  uint32_t incarnation(db::SiteId endpoint) const;

  // -- statistics ------------------------------------------------------------

  /// Payload retransmissions (attempts beyond each message's first).
  uint64_t retransmissions() const { return retransmissions_; }
  /// Sends that exhausted a capped retry budget.
  uint64_t send_failures() const { return send_failures_; }
  /// Sends that resolved true.
  uint64_t delivered() const { return delivered_; }
  /// Copies the receiver recognized as duplicates of an already-delivered
  /// (seq, incarnation) pair — retransmissions whose original got through.
  uint64_t dup_deliveries() const { return dup_deliveries_; }
  void ResetStats();

 private:
  friend struct ReliableChannelTestPeer;  // drives RecordDelivery in tests

  /// Receiver-side dedup state of one (from -> to) flow, owned by `to`: the
  /// sender incarnation it tracks and the sequence numbers delivered under
  /// it, which are every number below `below` and the numbers in `ahead`
  /// (sorted, each above `below`).
  struct RecvFlow {
    bool init = false;
    uint32_t sender_inc = 0;
    uint64_t below = 0;
    std::vector<uint64_t> ahead;
  };

  sim::Task<void> Charge(db::SiteId endpoint);
  uint64_t FlowKey(db::SiteId from, db::SiteId to) const;
  /// Receiver bookkeeping for one arrived copy of `seq` on flow `key`, sent
  /// under incarnation `sent_inc`; true when fresh.
  bool RecordDelivery(uint64_t key, uint64_t seq, uint32_t sent_inc);

  sim::Simulation* sim_;
  net::Network* net_;
  ChargeFn charge_;
  size_t ack_bytes_;
  double rto_initial_;
  double rto_backoff_;
  double rto_max_;

  std::vector<uint32_t> incarnation_;
  std::unordered_map<uint64_t, uint64_t> next_seq_;  // sender side, per flow
  std::unordered_map<uint64_t, RecvFlow> recv_;      // receiver side, per flow

  uint64_t retransmissions_ = 0;
  uint64_t send_failures_ = 0;
  uint64_t delivered_ = 0;
  uint64_t dup_deliveries_ = 0;
};

}  // namespace lazyrep::fault

#endif  // LAZYREP_FAULT_RELIABLE_CHANNEL_H_
