#include "rg/graph_site.h"

#include <algorithm>
#include <utility>

#include "sim/check.h"

namespace lazyrep::rg {

GraphSite::GraphSite(sim::Simulation* sim, hw::Cpu* cpu,
                     ReplicationGraph* graph, size_t queue_bound,
                     double timeout)
    : sim_(sim),
      cpu_(cpu),
      graph_(graph),
      queue_bound_(queue_bound),
      timeout_(timeout) {}

sim::Task<sim::WaitStatus> GraphSite::ServeTest(
    db::TxnId txn, std::span<const db::Operation> ops, bool bounded,
    ReplicationGraph::TestOutcome* outcome) {
  ++tests_run_;
  auto work = [this, txn, ops, outcome]() -> double {
    if (IsFinished(txn)) {
      // The transaction was aborted while this request sat in the queue;
      // treat as an abort verdict without touching the graph.
      outcome->result = ReplicationGraph::TestResult::kCycle;
      outcome->cycle_has_committed = true;
      return kGraphMessageInstr;
    }
    GraphCost cost;
    *outcome = graph_->RgTest(txn, ops, &cost);
    return kGraphMessageInstr + cost.Instructions();
  };
  return cpu_->Serve(std::move(work), bounded ? queue_bound_ : SIZE_MAX);
}

sim::Task<void> GraphSite::HandleRemove(db::TxnId txn) {
  if (IsFinished(txn)) co_return;
  if (txn >= finished_.size()) finished_.resize(txn + 1);
  finished_[txn] = true;
  CancelParked(txn);
  co_await cpu_->Serve(
      [this, txn]() -> double {
        GraphCost cost;
        graph_->Remove(txn, &cost);
        return kGraphMessageInstr + cost.Instructions();
      },
      SIZE_MAX);
  ScheduleRetest();
}

sim::Task<Verdict> GraphSite::Test(db::TxnId txn, db::SiteId origin,
                                   bool is_global,
                                   std::span<const db::Operation> ops,
                                   bool may_wait) {
  LAZYREP_CHECK_MSG(!may_wait || ops.size() == 1,
                    "a test that may wait covers one operation");
  if (IsFinished(txn)) co_return Verdict::kAbort;
  if (!graph_->Contains(txn)) graph_->AddTxn(txn, origin, is_global);

  ReplicationGraph::TestOutcome outcome;
  sim::WaitStatus status =
      co_await ServeTest(txn, ops, /*bounded=*/true, &outcome);
  if (status == sim::WaitStatus::kRejected) {
    // Queue overflow (§4.1.2): the new entrant is aborted.
    ++rejections_;
    co_await HandleRemove(txn);
    co_return Verdict::kRejected;
  }
  if (outcome.result == ReplicationGraph::TestResult::kOk) {
    co_return Verdict::kOk;
  }
  if (may_wait && !outcome.cycle_has_committed) {
    // Cycle of uncommitted transactions: wait for the graph to shrink.
    co_return co_await ParkAndWait(txn, ops.front());
  }
  // §2.4 step 2: a cycle through a committed transaction cannot resolve in
  // our favor; §2.5 step 4: an optimistic commit never waits (RgTest already
  // rolled back its tentative changes). Either way the transaction aborts
  // and leaves the graph.
  ++cycle_aborts_;
  co_await HandleRemove(txn);
  co_return Verdict::kAbort;
}

sim::Task<Verdict> GraphSite::ParkAndWait(db::TxnId txn, db::Operation op) {
  ++waits_;
  // The request lives on this frame: it leaves its queue (fired by the
  // retest pump, unparked on timeout, or cancelled) before the frame ends.
  ParkedOp parked(sim_, txn, op);
  auto& queue = parked_[txn];
  if (queue.empty()) wait_order_.push_back(txn);
  queue.push_back(&parked);
  ++parked_count_;

  sim::WaitStatus status = co_await parked.shot.Wait(timeout_);
  if (status == sim::WaitStatus::kSignaled) co_return Verdict::kOk;
  if (status == sim::WaitStatus::kTimeout) {
    // Deadlock-timeout while waiting (§3): abort the transaction. Unpark and
    // the remove's `finished_` mark happen in this one step.
    ++wait_timeouts_;
    Unpark(&parked);
    co_await HandleRemove(txn);
    co_return Verdict::kAbort;
  }
  // kCancelled: the transaction was aborted through another path.
  co_return Verdict::kAbort;
}

void GraphSite::Unpark(ParkedOp* parked) {
  auto it = parked_.find(parked->txn);
  if (it == parked_.end()) return;
  auto& queue = it->second;
  auto qit = std::find(queue.begin(), queue.end(), parked);
  if (qit != queue.end()) {
    queue.erase(qit);
    --parked_count_;
  }
  if (queue.empty()) parked_.erase(it);
}

void GraphSite::CancelParked(db::TxnId txn) {
  auto it = parked_.find(txn);
  if (it == parked_.end()) return;
  std::deque<ParkedOp*> queue = std::move(it->second);
  parked_.erase(it);
  parked_count_ -= queue.size();
  for (ParkedOp* p : queue) {
    p->shot.Fire(sim::WaitStatus::kCancelled);
  }
}

void GraphSite::ScheduleRetest() {
  retest_pending_ = true;
  if (!retest_running_) {
    retest_running_ = true;
    sim_->Spawn(RetestPump());
  }
}

sim::Process GraphSite::RetestPump() {
  while (retest_pending_) {
    retest_pending_ = false;
    size_t rounds = wait_order_.size();
    for (size_t i = 0; i < rounds && !wait_order_.empty(); ++i) {
      db::TxnId txn = wait_order_.front();
      wait_order_.pop_front();
      bool still_parked = false;
      while (true) {
        auto it = parked_.find(txn);
        if (it == parked_.end() || it->second.empty()) break;
        ParkedOp* head = it->second.front();
        // The test reads this frame's copy: a cancellation ends the waiting
        // frame, and with it `head`, even while the Serve is queued.
        const db::Operation op = head->op;
        ReplicationGraph::TestOutcome outcome;
        co_await ServeTest(txn, {&op, 1}, /*bounded=*/false, &outcome);
        // A timeout or cancellation marks `txn` finished in the step that
        // takes its request off the queue, so a live `txn` still has `head`
        // first.
        if (IsFinished(txn)) break;
        if (outcome.result == ReplicationGraph::TestResult::kOk) {
          auto it2 = parked_.find(txn);
          LAZYREP_CHECK(it2 != parked_.end() && it2->second.front() == head);
          Unpark(head);
          head->shot.Fire(sim::WaitStatus::kSignaled);
          continue;  // try this transaction's next parked op
        }
        if (outcome.cycle_has_committed) {
          ++cycle_aborts_;
          co_await HandleRemove(txn);  // cancels remaining parked ops
          break;
        }
        still_parked = true;  // still blocked by live transactions
        break;
      }
      if (still_parked) wait_order_.push_back(txn);
    }
  }
  retest_running_ = false;
}

sim::Task<void> GraphSite::HandleCommitted(db::TxnId txn) {
  co_await cpu_->Execute(kGraphMessageInstr);
  if (!IsFinished(txn) && graph_->Contains(txn)) {
    graph_->MarkCommitted(txn);
  }
}

sim::Task<sim::WaitStatus> GraphSite::ChargeMessages(int count) {
  return cpu_->Execute(kGraphMessageInstr * count);
}

}  // namespace lazyrep::rg
