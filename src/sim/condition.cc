#include "sim/condition.h"

namespace lazyrep::sim {

bool OneShot::Fire(WaitStatus status) {
  if (fired_) return false;
  fired_ = true;
  status_ = status;
  if (waiter_) {
    sim_->Cancel(timeout_event_);
    timeout_event_ = EventId{};
    std::coroutine_handle<> h = waiter_;
    waiter_ = nullptr;
    // Resume through the event queue so firing is never reentrant: the
    // signaler finishes its own step before the waiter runs.
    sim_->ScheduleResumeNow(h);
  }
  return true;
}

void OneShot::Reset() {
  LAZYREP_CHECK_MSG(waiter_ == nullptr, "Reset while armed");
  fired_ = false;
  status_ = WaitStatus::kSignaled;
}

void OneShot::Awaiter::await_suspend(std::coroutine_handle<> h) {
  OneShot* s = shot;
  LAZYREP_CHECK_MSG(s->waiter_ == nullptr, "OneShot supports a single waiter");
  s->waiter_ = h;
  if (timeout != kTimeInfinity) {
    s->timeout_event_ = s->sim_->ScheduleCallbackAt(
        s->sim_->Now() + timeout, [s] {
          // The timeout event fires only if the shot was not fired first
          // (Fire cancels it), so the waiter must still be armed.
          LAZYREP_CHECK(s->waiter_ != nullptr);
          s->timeout_event_ = EventId{};
          s->fired_ = true;
          s->status_ = WaitStatus::kTimeout;
          std::coroutine_handle<> w = s->waiter_;
          s->waiter_ = nullptr;
          w.resume();
        });
  }
}

}  // namespace lazyrep::sim
