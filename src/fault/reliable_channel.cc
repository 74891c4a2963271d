#include "fault/reliable_channel.h"

#include <algorithm>

namespace lazyrep::fault {

ReliableChannel::ReliableChannel(sim::Simulation* sim, net::Network* net,
                                 const FaultParams& params, size_t ack_bytes)
    : sim_(sim),
      net_(net),
      ack_bytes_(ack_bytes),
      rto_initial_(params.rto_initial) {}

sim::Task<void> ReliableChannel::Charge(db::SiteId endpoint) {
  if (charge_) co_await charge_(endpoint);
}

sim::Task<bool> ReliableChannel::Send(db::SiteId from, db::SiteId to,
                                      size_t bytes, int max_retries) {
  double rto = rto_initial_;
  for (int attempt = 0;; ++attempt) {
    sim::SimTime attempt_start = sim_->Now();
    if (attempt > 0) {
      ++retransmissions_;
      co_await Charge(from);  // re-send CPU; the first send is caller-paid
    }
    bool arrived = co_await net_->Transfer(from, to, bytes);
    if (arrived) {
      bool acked = co_await net_->Transfer(to, from, ack_bytes_);
      if (acked) {
        ++delivered_;
        co_return true;
      }
      // Payload consumed but the ack was lost: the receiver will discard the
      // retransmitted copy — charge that dedup processing now.
      co_await Charge(to);
    }
    if (max_retries >= 0 && attempt >= max_retries) {
      ++send_failures_;
      co_return false;
    }
    // The sender detects the loss only when the retransmission timer fires.
    double elapsed = sim_->Now() - attempt_start;
    if (elapsed < rto) co_await sim_->Delay(rto - elapsed);
    rto = std::min(rto * kRtoBackoff, kRtoMax);
  }
}

void ReliableChannel::ResetStats() {
  retransmissions_ = 0;
  send_failures_ = 0;
  delivered_ = 0;
}

}  // namespace lazyrep::fault
