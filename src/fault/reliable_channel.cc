#include "fault/reliable_channel.h"

#include <algorithm>

namespace lazyrep::fault {

ReliableChannel::ReliableChannel(sim::Simulation* sim, net::Network* net,
                                 const FaultParams& params, size_t ack_bytes)
    : sim_(sim),
      net_(net),
      ack_bytes_(ack_bytes),
      rto_initial_(params.rto_initial),
      rto_backoff_(params.rto_backoff),
      rto_max_(params.rto_max),
      incarnation_(net->num_endpoints(), 0) {}

sim::Task<void> ReliableChannel::Charge(db::SiteId endpoint) {
  if (charge_) co_await charge_(endpoint);
}

uint64_t ReliableChannel::FlowKey(db::SiteId from, db::SiteId to) const {
  return static_cast<uint64_t>(from) * incarnation_.size() +
         static_cast<uint64_t>(to);
}

bool ReliableChannel::RecordDelivery(uint64_t key, uint64_t seq,
                                     uint32_t sent_inc) {
  RecvFlow& rf = recv_[key];
  if (!rf.init || rf.sender_inc != sent_inc) {
    // First contact, or the sender rebooted: its counters restarted, so the
    // old delivered-seq window no longer applies to this incarnation.
    rf.init = true;
    rf.sender_inc = sent_inc;
    rf.below = 0;
    rf.ahead.clear();
  }
  bool fresh = seq >= rf.below;
  if (seq == rf.below) {
    // The next number in order: advance past it and past every number
    // that had arrived ahead of it.
    size_t absorbed = 0;
    ++rf.below;
    while (absorbed < rf.ahead.size() && rf.ahead[absorbed] == rf.below) {
      ++absorbed;
      ++rf.below;
    }
    rf.ahead.erase(rf.ahead.begin(), rf.ahead.begin() + absorbed);
  } else if (fresh) {
    auto it = std::lower_bound(rf.ahead.begin(), rf.ahead.end(), seq);
    fresh = it == rf.ahead.end() || *it != seq;
    if (fresh) rf.ahead.insert(it, seq);
  }
  if (!fresh) ++dup_deliveries_;
  return fresh;
}

sim::Task<bool> ReliableChannel::Send(db::SiteId from, db::SiteId to,
                                      size_t bytes, int max_retries) {
  uint64_t key = FlowKey(from, to);
  uint64_t seq = next_seq_[key]++;
  uint32_t sent_inc = incarnation_[from];
  double rto = rto_initial_;
  for (int attempt = 0;; ++attempt) {
    sim::SimTime attempt_start = sim_->Now();
    if (attempt > 0) {
      ++retransmissions_;
      co_await Charge(from);  // re-send CPU; the first send is caller-paid
    }
    bool arrived = co_await net_->Transfer(from, to, bytes);
    if (arrived) {
      RecordDelivery(key, seq, sent_inc);
      bool acked = co_await net_->Transfer(to, from, ack_bytes_);
      if (acked) {
        ++delivered_;
        co_return true;
      }
      // Payload consumed but the ack was lost: the retransmit will be
      // deduped at the receiver — charge the dedup processing now.
      co_await Charge(to);
    }
    if (max_retries >= 0 && attempt >= max_retries) {
      ++send_failures_;
      co_return false;
    }
    // The sender detects the loss only when the retransmission timer fires.
    double elapsed = sim_->Now() - attempt_start;
    if (elapsed < rto) co_await sim_->Delay(rto - elapsed);
    rto = std::min(rto * rto_backoff_, rto_max_);
  }
}

void ReliableChannel::OnEndpointCrash(db::SiteId endpoint) {
  size_t n = incarnation_.size();
  // Receiver dedup state at the crashed endpoint is volatile; a wiped flow
  // keeps its storage and starts over on its next copy.
  for (auto& [key, rf] : recv_) {
    if (key % n == static_cast<uint64_t>(endpoint)) rf.init = false;
  }
  // So are its sender counters; the incarnation bump keeps their restart
  // from colliding with pre-crash sequence numbers at the receivers.
  for (auto& [key, next] : next_seq_) {
    if (key / n == static_cast<uint64_t>(endpoint)) next = 0;
  }
  ++incarnation_[endpoint];
}

uint32_t ReliableChannel::incarnation(db::SiteId endpoint) const {
  return incarnation_[static_cast<size_t>(endpoint)];
}

void ReliableChannel::ResetStats() {
  retransmissions_ = 0;
  send_failures_ = 0;
  delivered_ = 0;
  dup_deliveries_ = 0;
}

}  // namespace lazyrep::fault
