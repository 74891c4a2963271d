#include "sim/simulation.h"

#include "sim/check.h"
#include "sim/condition.h"

namespace lazyrep::sim {

bool Simulation::Step(SimTime until) {
  SimTime next = events_.PeekTime();
  if (next == kTimeInfinity || next > until) return false;
  EventQueue::Fired fired = events_.Pop();
  LAZYREP_CHECK_MSG(fired.time + 1e-12 >= now_, "event scheduled in the past");
  now_ = fired.time;
  ++events_fired_;
  if (fired.handle) {
    const auto ref = reinterpret_cast<uintptr_t>(fired.handle.address());
    if ((ref & kServiceEndTag) != 0) {
      reinterpret_cast<FacilityRequest*>(ref ^ kServiceEndTag)->EndService();
    } else {
      fired.handle.resume();
    }
  } else {
    fired.callback();
  }
  return true;
}

uint64_t Simulation::Run(SimTime until) {
  uint64_t fired = 0;
  while (Step(until)) ++fired;
  if (events_.PeekTime() > until && until != kTimeInfinity) {
    // Advance the clock to the horizon so utilization denominators line up.
    now_ = until;
  }
  return fired;
}

}  // namespace lazyrep::sim
