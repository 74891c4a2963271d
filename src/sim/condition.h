#ifndef LAZYREP_SIM_CONDITION_H_
#define LAZYREP_SIM_CONDITION_H_

#include <coroutine>
#include <optional>
#include <utility>

#include "sim/check.h"
#include "sim/event_queue.h"
#include "sim/process.h"
#include "sim/simulation.h"

namespace lazyrep::sim {

/// Result of a timed wait.
enum class WaitStatus : uint8_t {
  kSignaled,   ///< the event we waited for happened
  kTimeout,    ///< the deadline elapsed first
  kCancelled,  ///< an external actor cancelled the wait (e.g. abort)
  kRejected,   ///< admission refused (bounded queue overflow)
};

class Facility;

/// A facility request with no frame of its own. It lives inside the
/// Task<WaitStatus> that Facility::Use returns, that is in the frame of the
/// coroutine awaiting it, and the facility's FIFO links through it. Its
/// service's end is the request itself: the event is its tagged address
/// (Simulation::ScheduleServiceEnd), and ending the service schedules the
/// wake-up of `waiter`. Every co_await of a kernel wait holds one in its
/// awaiter's frame, so it is kept to 24 bytes: one field holds the facility
/// until the request parks and again while it is in service, and the FIFO
/// link while it queues.
struct FacilityRequest {
  union {
    Facility* facility;     ///< until parked, and in service: its facility
    FacilityRequest* next;  ///< while queued: the facility's FIFO link
  };
  SimTime service;
  std::coroutine_handle<> waiter;  ///< woken when the service ends

  /// Suspends `h` on this request: service starts at once when a server is
  /// free, else the request queues FCFS (sim/facility.cc).
  void Park(std::coroutine_handle<> h);

  /// Ends the service, at the instant its start scheduled (Simulation::Step
  /// calls it): frees the server, schedules the wake-up of `waiter` and
  /// starts the next queued request.
  void EndService();
};
static_assert(sizeof(FacilityRequest) == 24);
// Bits 0 and 1 of a request's address are clear, so the service-end tag
// (bit 1) fits, as it does in a coroutine frame's address.
static_assert(alignof(FacilityRequest) >= 4);

/// A kernel leaf wait: what Facility::Use/UseBounded/Serve,
/// LockManager::Acquire and the disk accesses return. It takes one of three
/// forms:
///
/// * a coroutine, started lazily like every Task (a Serve, a lock request
///   that must queue);
/// * finished: the wait resolved at the call (an immediate or repeated lock
///   grant, a bounded-queue rejection, a buffer hit), and co_await returns
///   its status without suspending;
/// * parked: a FacilityRequest held inside the Task. co_await queues the
///   awaiting coroutine itself at the facility, and the service end's
///   wake-up resumes it: no frame and no transfer through one.
///
/// A finished task has done its side effects at the call (the grant and its
/// trace record, the rejection count, the buffer draw), so a kernel wait is
/// awaited in the expression that makes it. A finished or parked task
/// destroyed unawaited fails a LAZYREP_CHECK.
template <>
class [[nodiscard]] Task<WaitStatus> {
 public:
  struct promise_type : TaskPromiseBase {
    std::optional<WaitStatus> value;

    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_value(WaitStatus v) { value = v; }
  };

  explicit Task(std::coroutine_handle<promise_type> handle)
      : handle_(handle), form_(Form::kCoroutine) {}
  /// A wait that already resolved with `status`.
  static Task Finished(WaitStatus status) { return Task(status); }
  /// `service` seconds at `facility`, FCFS; resolves kSignaled.
  static Task Parked(Facility* facility, SimTime service) {
    return Task(FacilityRequest{{facility}, service, nullptr});
  }

  Task(Task&& other) noexcept
      : status_(other.status_),
        form_(std::exchange(other.form_, Form::kEmpty)) {
    if (form_ == Form::kCoroutine) handle_ = other.handle_;
    if (form_ == Form::kParked) request_ = other.request_;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  Task& operator=(Task&&) = delete;
  ~Task() {
    if (form_ == Form::kCoroutine) {
      handle_.destroy();
      return;
    }
    LAZYREP_CHECK_MSG(form_ == Form::kEmpty,
                      "kernel wait destroyed unawaited: await it where it "
                      "is made");
  }

  bool await_ready() const noexcept { return form_ == Form::kFinished; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> awaiter) {
    if (form_ == Form::kParked) {
      request_.Park(awaiter);
      return std::noop_coroutine();
    }
    handle_.promise().continuation = awaiter;
    return handle_;  // symmetric transfer into the task body
  }
  WaitStatus await_resume() {
    if (form_ == Form::kCoroutine) {
      LAZYREP_CHECK(handle_.promise().value.has_value());
      return *handle_.promise().value;
    }
    form_ = Form::kEmpty;  // awaited: nothing is left to check
    return status_;
  }

 private:
  enum class Form : uint8_t { kEmpty, kCoroutine, kFinished, kParked };

  explicit Task(WaitStatus status)
      : handle_(nullptr), status_(status), form_(Form::kFinished) {}
  explicit Task(FacilityRequest request)
      : request_(request), form_(Form::kParked) {}

  union {
    std::coroutine_handle<promise_type> handle_;  ///< kCoroutine
    FacilityRequest request_;                     ///< kParked
  };
  WaitStatus status_ = WaitStatus::kSignaled;  ///< kFinished and kParked
  Form form_;
};
static_assert(sizeof(Task<WaitStatus>) == 32);

/// One-shot synchronization point between one waiting process and one
/// signaler, with an optional timeout.
///
/// Exactly one process may wait at a time. Fire() may be called before or
/// after Wait() begins; a pre-fired status is delivered immediately. This is
/// the primitive beneath lock grants, RPC replies, ack collection and
/// graph-site wait queues.
///
/// The object must outlive the wait: the kernel resumes the waiter through a
/// pointer to it.
class OneShot {
 public:
  explicit OneShot(Simulation* sim) : sim_(sim) {}
  OneShot(const OneShot&) = delete;
  OneShot& operator=(const OneShot&) = delete;
  ~OneShot() { LAZYREP_CHECK_MSG(waiter_ == nullptr, "OneShot destroyed armed"); }

  /// Delivers `status` to the waiter (resuming it at the current time), or
  /// records it for a future Wait(). Returns false if the shot was already
  /// fired (the call is then a no-op).
  bool Fire(WaitStatus status);

  /// True once Fire() has been called.
  bool fired() const { return fired_; }

  /// Resets a fired, unarmed OneShot so it can be reused.
  void Reset();

  struct Awaiter {
    OneShot* shot;
    SimTime timeout;

    bool await_ready() const noexcept { return shot->fired_; }
    void await_suspend(std::coroutine_handle<> h);
    WaitStatus await_resume() const noexcept { return shot->status_; }
  };

  /// Suspends the calling process until Fire() or until `timeout` simulated
  /// seconds elapse. Returns the delivered status (kTimeout on expiry).
  Awaiter Wait(SimTime timeout = kTimeInfinity) { return Awaiter{this, timeout}; }

 private:
  friend struct Awaiter;

  Simulation* sim_;
  std::coroutine_handle<> waiter_;
  EventId timeout_event_;
  WaitStatus status_ = WaitStatus::kSignaled;
  bool fired_ = false;
};

/// Counts down from `count` to zero; fires a OneShot when it reaches zero.
/// Used to gather N acknowledgements (e.g. replica-update acks).
class Countdown {
 public:
  Countdown(Simulation* sim, int count) : shot_(sim), remaining_(count) {
    if (remaining_ <= 0) shot_.Fire(WaitStatus::kSignaled);
  }

  /// Signals one arrival; the waiter resumes when all have arrived.
  void Arrive() {
    LAZYREP_CHECK(remaining_ > 0);
    if (--remaining_ == 0) shot_.Fire(WaitStatus::kSignaled);
  }

  /// Cancels the wait (e.g. the gathering transaction aborted).
  void Cancel() {
    if (!shot_.fired()) shot_.Fire(WaitStatus::kCancelled);
  }

  /// Waits for the count to reach zero (or timeout/cancellation).
  OneShot::Awaiter Wait(SimTime timeout = kTimeInfinity) {
    return shot_.Wait(timeout);
  }

 private:
  OneShot shot_;
  int remaining_;
};

}  // namespace lazyrep::sim

#endif  // LAZYREP_SIM_CONDITION_H_
