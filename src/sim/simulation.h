#ifndef LAZYREP_SIM_SIMULATION_H_
#define LAZYREP_SIM_SIMULATION_H_

#include <coroutine>
#include <cstdint>
#include <utility>

#include "sim/event_queue.h"
#include "sim/process.h"

namespace lazyrep::sim {

struct FacilityRequest;  // sim/condition.h

/// The discrete-event simulation executive.
///
/// Holds the clock and the event queue and drives coroutine processes.
/// Typical use:
///
///     Simulation sim;
///     sim.Spawn(MyProcess(&sim, ...));   // MyProcess returns sim::Process
///     sim.Run();                          // until no events remain
///
/// Inside a process:
///
///     co_await sim->Delay(0.5);           // advance simulated time
class Simulation {
 public:
  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current simulated time in seconds.
  SimTime Now() const { return now_; }

  /// Starts a detached process. The first step of the coroutine runs at the
  /// current simulated time, after the caller yields to the executive.
  void Spawn(Process process) {
    events_.ScheduleResume(now_, process.Release());
  }

  /// Awaitable that suspends the current process for `dt` simulated seconds.
  struct DelayAwaiter {
    Simulation* sim;
    SimTime dt;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      sim->events_.ScheduleResume(sim->now_ + dt, h);
    }
    void await_resume() const noexcept {}
  };
  DelayAwaiter Delay(SimTime dt) { return DelayAwaiter{this, dt}; }

  /// Awaitable that suspends the current process until the absolute
  /// simulated instant `at` (an already-passed instant resumes at the
  /// current time, after already-queued same-time events). Trace replay
  /// schedules recorded submission times through this rather than
  /// re-accumulated Delay() deltas, which would drift from the recorded
  /// doubles by ulps.
  struct DelayUntilAwaiter {
    Simulation* sim;
    SimTime at;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      sim->events_.ScheduleResume(at < sim->now_ ? sim->now_ : at, h);
    }
    void await_resume() const noexcept {}
  };
  DelayUntilAwaiter DelayUntil(SimTime at) {
    return DelayUntilAwaiter{this, at};
  }

  /// Schedules `handle` to resume immediately (at the current time, after
  /// already-queued same-time events). A wake-up cannot be cancelled, so it
  /// has no id: in the lane it is the frame address alone.
  void ScheduleResumeNow(std::coroutine_handle<> handle) {
    events_.ScheduleResume(now_, handle);
  }

  /// Schedules the end of `request`'s service at absolute time `t`, as a
  /// resume of the request's address with bit 1 set (kServiceEndTag). A
  /// coroutine frame holds pointers, so its address never has that bit, and
  /// Step ends the service from the address (FacilityRequest::EndService):
  /// the event carries no callback.
  void ScheduleServiceEnd(SimTime t, FacilityRequest* request) {
    events_.ScheduleResume(
        t, std::coroutine_handle<>::from_address(reinterpret_cast<void*>(
               reinterpret_cast<uintptr_t>(request) | kServiceEndTag)));
  }

  /// Schedules a callback at absolute time `t`. `fn` is anything a Callback
  /// is constructible from; a lambda is built straight into the queue's
  /// by-value parameter, saving a Callback move per event.
  template <typename F>
  EventId ScheduleCallbackAt(SimTime t, F&& fn) {
    return events_.ScheduleCallback(t,
                                    EventQueue::Callback(std::forward<F>(fn)));
  }

  /// Cancels a pending event; safe on stale ids.
  bool Cancel(EventId id) { return events_.Cancel(id); }

  /// Runs until the event queue drains or the clock passes `until`.
  /// Returns the number of events fired.
  uint64_t Run(SimTime until = kTimeInfinity);

  /// Fires at most one event. Returns false when the queue is empty or the
  /// next event lies beyond `until` (the clock is not advanced past it).
  bool Step(SimTime until = kTimeInfinity);

  /// Total number of events fired so far.
  uint64_t events_fired() const { return events_fired_; }

  /// Number of pending events (cancellations excluded).
  size_t pending_events() const { return events_.Size(); }

  /// The underlying queue, for kernel diagnostics (heap occupancy checks).
  const EventQueue& event_queue() const { return events_; }

 private:
  static constexpr uintptr_t kServiceEndTag = 2;

  EventQueue events_;
  SimTime now_ = 0;
  uint64_t events_fired_ = 0;
};

}  // namespace lazyrep::sim

#endif  // LAZYREP_SIM_SIMULATION_H_
