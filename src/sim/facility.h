#ifndef LAZYREP_SIM_FACILITY_H_
#define LAZYREP_SIM_FACILITY_H_

#include <cstdint>
#include <string>

#include "sim/condition.h"
#include "sim/inline_function.h"
#include "sim/process.h"
#include "sim/simulation.h"
#include "sim/stats.h"

namespace lazyrep::sim {

/// A CSIM-style facility: one or more identical servers with a shared FCFS
/// queue. Models CPUs, disk spindles and network links.
///
/// A process occupies a server for a caller-supplied service time:
///
///     co_await cpu.Use(instructions / mips);
///
/// UseBounded additionally rejects the request when the number of waiting
/// requests has reached a bound — this models the paper's bounded request
/// queue at the replication-graph site (§4.1.2).
///
/// Use and UseBounded build no coroutine: the request is the
/// FacilityRequest inside the returned Task, so it lives in the awaiting
/// coroutine's frame, and the intrusive wait queue links through it without
/// a heap allocation. The service's end is an event made of the request's
/// tagged address, and its wake-up resumes the awaiter itself.
class Facility {
 public:
  Facility(Simulation* sim, std::string name, int servers = 1);
  Facility(const Facility&) = delete;
  Facility& operator=(const Facility&) = delete;

  /// Occupies a server for `service` seconds, queuing FCFS when all servers
  /// are busy. Always returns kSignaled. A parked task: the request joins
  /// the facility when the task is awaited.
  Task<WaitStatus> Use(SimTime service);

  /// Like Use, but returns kRejected immediately (consuming no service) when
  /// `queue_bound` requests are already waiting. The rejection is decided,
  /// and counted, at the call.
  Task<WaitStatus> UseBounded(SimTime service, size_t queue_bound);

  /// Work function evaluated when a Serve request reaches the server; it
  /// performs the request's side effects and returns the amount of work they
  /// cost (in units of `work_rate` per second — seconds when work_rate is 1).
  /// Running side effects at service start (not at enqueue) keeps state
  /// mutations serialized in server order — required for the
  /// single-threaded replication-graph manager. Captures must fit the
  /// inline-callable budget; there is no heap fallback.
  using WorkFn = InlineFunction<SimTime()>;

  /// FCFS service whose duration (and side effects) are determined when the
  /// server picks the request up: the service time is work() / work_rate.
  /// Rejects like UseBounded when `queue_bound` requests are waiting; pass
  /// SIZE_MAX for an unbounded queue. A coroutine, whose frame keeps `work`
  /// alive while the request queues.
  Task<WaitStatus> Serve(WorkFn work, size_t queue_bound,
                         double work_rate = 1.0);

  /// Fraction of server capacity in use since the last ResetStats.
  double Utilization() const;

  /// Time-averaged number of waiting (not in service) requests.
  double MeanQueueLength() const;

  /// Completed services since the last ResetStats.
  uint64_t completed() const { return completed_; }

  /// Requests rejected by UseBounded since the last ResetStats.
  uint64_t rejected() const { return rejected_; }

  /// Restarts utilization/queue statistics at the current time (used to
  /// discard the warm-up transient).
  void ResetStats();

  const std::string& name() const { return name_; }

 private:
  friend struct FacilityRequest;

  /// A Serve request, in the Serve frame. Its service time is unknown until
  /// `work` runs at service start; kServiceFromWork marks it in the queue.
  struct ServeRequest : FacilityRequest {
    WorkFn work;
    double work_rate = 1.0;
  };
  static constexpr SimTime kServiceFromWork = -1;

  /// Starts service at once when a server is free, else queues FCFS.
  void Admit(FacilityRequest* request);
  void Enqueue(FacilityRequest* request);
  FacilityRequest* Dequeue();
  void StartService(FacilityRequest* request);
  void OnServiceComplete(FacilityRequest* request);
  bool Rejects(size_t queue_bound) const {
    return busy_ >= servers_ && queue_len_ >= queue_bound;
  }

  Simulation* sim_;
  std::string name_;
  int servers_;
  int busy_ = 0;
  FacilityRequest* queue_head_ = nullptr;
  FacilityRequest* queue_tail_ = nullptr;
  size_t queue_len_ = 0;
  TimeWeightedStat busy_stat_;
  TimeWeightedStat queue_stat_;
  uint64_t completed_ = 0;
  uint64_t rejected_ = 0;
};

}  // namespace lazyrep::sim

#endif  // LAZYREP_SIM_FACILITY_H_
