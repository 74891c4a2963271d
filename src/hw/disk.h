#ifndef LAZYREP_HW_DISK_H_
#define LAZYREP_HW_DISK_H_

#include <cstdint>
#include <string>

#include "sim/condition.h"
#include "sim/facility.h"
#include "sim/process.h"
#include "sim/random.h"
#include "sim/simulation.h"

namespace lazyrep::hw {

/// Disk subsystem parameters (Table 1: Seagate Barracuda 9, UltraSCSI).
struct DiskParams {
  /// Positioning latency per access, seconds (seek + rotation).
  double latency = 0.0097;
  /// Sustained transfer rate, bytes per second (16-bit UltraSCSI, 40 MB/s).
  double transfer_rate = 40e6;
  /// Spindles per machine.
  int disks_per_site = 10;
  /// Probability that a database page access misses the main-memory buffer.
  double buffer_miss_ratio = 0.10;
};

/// The per-site disk array plus buffer-pool model.
///
/// A logical page access goes to disk only on a buffer miss; the array is a
/// pool of identical spindles with a shared FCFS queue. Log forces always hit
/// a disk (they exist to survive a crash).
class DiskSubsystem {
 public:
  DiskSubsystem(sim::Simulation* sim, std::string name,
                const DiskParams& params, uint64_t seed)
      : array_(sim, std::move(name), params.disks_per_site),
        params_(params),
        rng_(seed) {}

  // Each access is a kernel wait (sim/condition.h): the array's use, or on
  // a buffer hit a finished task. The buffer draw happens at the call.

  /// Reads a data page of `bytes`; returns immediately on a buffer hit.
  sim::Task<sim::WaitStatus> ReadPage(size_t bytes) {
    if (!rng_.Chance(params_.buffer_miss_ratio)) {
      ++buffer_hits_;
      return sim::Task<sim::WaitStatus>::Finished(sim::WaitStatus::kSignaled);
    }
    ++physical_reads_;
    return array_.Use(AccessTime(bytes));
  }

  /// Writes a data page of `bytes` through the buffer (write-back: a
  /// physical write happens with the buffer miss probability; see DESIGN.md,
  /// Substitutions).
  sim::Task<sim::WaitStatus> WritePage(size_t bytes) {
    if (!rng_.Chance(params_.buffer_miss_ratio)) {
      ++buffer_hits_;
      return sim::Task<sim::WaitStatus>::Finished(sim::WaitStatus::kSignaled);
    }
    ++physical_writes_;
    return array_.Use(AccessTime(bytes));
  }

  /// Forces the log to disk (commit durability); always a physical write.
  sim::Task<sim::WaitStatus> ForceLog(size_t bytes) {
    ++physical_writes_;
    return array_.Use(AccessTime(bytes));
  }

  /// Sequentially reads `bytes` of log during crash recovery; always a
  /// physical access (the buffer pool did not survive the crash).
  sim::Task<sim::WaitStatus> ReadLog(size_t bytes) {
    ++physical_reads_;
    return array_.Use(AccessTime(bytes));
  }

  /// Seconds for one physical access of `bytes`.
  double AccessTime(size_t bytes) const {
    return params_.latency +
           static_cast<double>(bytes) / params_.transfer_rate;
  }

  double Utilization() const { return array_.Utilization(); }
  uint64_t physical_reads() const { return physical_reads_; }
  uint64_t physical_writes() const { return physical_writes_; }
  uint64_t buffer_hits() const { return buffer_hits_; }

  void ResetStats() {
    array_.ResetStats();
    physical_reads_ = physical_writes_ = buffer_hits_ = 0;
  }

 private:
  sim::Facility array_;
  DiskParams params_;
  sim::RandomStream rng_;
  uint64_t physical_reads_ = 0;
  uint64_t physical_writes_ = 0;
  uint64_t buffer_hits_ = 0;
};

}  // namespace lazyrep::hw

#endif  // LAZYREP_HW_DISK_H_
