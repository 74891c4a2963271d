#ifndef LAZYREP_PROTOCOLS_OPTIMISTIC_PROTOCOL_H_
#define LAZYREP_PROTOCOLS_OPTIMISTIC_PROTOCOL_H_

#include "protocols/protocol.h"

namespace lazyrep::proto {

/// The optimistic replication-graph protocol (§2.5, [7]).
///
/// Operations execute at the origination site under the local DBMS's strict
/// 2PL only, while the transaction's access set is collected. The single
/// graph-site coordination happens when the transaction submits its commit:
/// one RGtest over the whole access set. Success commits; failure (a cycle)
/// aborts — the protocol never waits on the graph, so no global deadlocks
/// exist. Replica propagation and completion tracking mirror the pessimistic
/// protocol.
class OptimisticProtocol : public Protocol {
 public:
  explicit OptimisticProtocol(core::System* system) : Protocol(system) {}

  sim::Process Execute(txn::Transaction* t) override;
  void OnCompleted(txn::Transaction* t) override;
};

}  // namespace lazyrep::proto

#endif  // LAZYREP_PROTOCOLS_OPTIMISTIC_PROTOCOL_H_
