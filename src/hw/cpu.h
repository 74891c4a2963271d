#ifndef LAZYREP_HW_CPU_H_
#define LAZYREP_HW_CPU_H_

#include <string>
#include <utility>

#include "sim/facility.h"
#include "sim/process.h"
#include "sim/simulation.h"

namespace lazyrep::hw {

/// A site CPU costed in instructions, as in the paper (300 MIPS default;
/// replication-graph costs are published as instruction counts).
class Cpu {
 public:
  Cpu(sim::Simulation* sim, std::string name, double mips)
      : facility_(sim, std::move(name)), mips_(mips) {}

  /// Seconds needed to execute `instructions`.
  double SecondsFor(double instructions) const {
    return instructions / (mips_ * 1e6);
  }

  /// Executes `instructions`, queuing FCFS behind other work on this CPU.
  sim::Task<sim::WaitStatus> Execute(double instructions) {
    return facility_.Use(SecondsFor(instructions));
  }

  /// Single-threaded service whose instruction count is determined when the
  /// CPU picks the request up; rejects when `queue_bound` requests already
  /// wait. `work` returns the number of instructions its side effects cost;
  /// the facility divides by the instruction rate (same arithmetic as
  /// SecondsFor) without wrapping the callable — the caller's captures go
  /// straight into the inline work slot.
  sim::Task<sim::WaitStatus> Serve(sim::Facility::WorkFn work,
                                   size_t queue_bound) {
    return facility_.Serve(std::move(work), queue_bound, mips_ * 1e6);
  }

  double Utilization() const { return facility_.Utilization(); }
  double MeanQueueLength() const { return facility_.MeanQueueLength(); }
  uint64_t rejected() const { return facility_.rejected(); }
  void ResetStats() { facility_.ResetStats(); }

 private:
  sim::Facility facility_;
  double mips_;
};

}  // namespace lazyrep::hw

#endif  // LAZYREP_HW_CPU_H_
