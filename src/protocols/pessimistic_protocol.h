#ifndef LAZYREP_PROTOCOLS_PESSIMISTIC_PROTOCOL_H_
#define LAZYREP_PROTOCOLS_PESSIMISTIC_PROTOCOL_H_

#include <deque>
#include <memory>
#include <vector>

#include "protocols/protocol.h"

namespace lazyrep::proto {

/// The pessimistic replication-graph protocol (§2.4, improving protocol GS
/// of [5]).
///
/// Every read/write at the origination site is submitted to the graph site
/// for an RGtest before it executes (one control round trip per operation).
/// A failed test makes a local transaction abort; a global transaction
/// aborts if the cycle contains a committed transaction and otherwise waits
/// at the graph site until the graph shrinks (deadlock timeout applies).
/// Local DBMSs run ordinary strict 2PL, released at local commit; replica
/// updates propagate lazily after commit, and acks flow to the graph site,
/// which runs the completion fixpoint and applies the split rule.
class PessimisticProtocol : public Protocol {
 public:
  explicit PessimisticProtocol(core::System* system) : Protocol(system) {}

  sim::Process Execute(txn::Transaction* t) override;
  void OnCompleted(txn::Transaction* t) override;

 private:
  struct ExecState {
    explicit ExecState(int num_ops) : verdicts(num_ops, rg::Verdict::kAbort) {}
    std::deque<sim::OneShot> slots;
    std::vector<rg::Verdict> verdicts;
    core::System::ConflictEdges edges;
  };
  using StatePtr = std::shared_ptr<ExecState>;

  /// Ships operation `index` to the graph site for its RGtest.
  sim::Process OpTester(txn::Transaction* t, int index, StatePtr st);

  /// Post-commit notification to the graph site: committed-state mark,
  /// origin conflict edges, origin subtransaction commit.
  sim::Process CommitNotice(txn::Transaction* t, StatePtr st);
};

}  // namespace lazyrep::proto

#endif  // LAZYREP_PROTOCOLS_PESSIMISTIC_PROTOCOL_H_
