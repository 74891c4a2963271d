#include "sim/facility.h"

#include <utility>

namespace lazyrep::sim {

Facility::Facility(Simulation* sim, std::string name, int servers)
    : sim_(sim), name_(std::move(name)), servers_(servers) {
  LAZYREP_CHECK(servers_ >= 1);
  busy_stat_.Start(sim_->Now());
  queue_stat_.Start(sim_->Now());
}

void FacilityRequest::Park(std::coroutine_handle<> h) {
  Facility* at = facility;
  next = nullptr;
  waiter = h;
  at->Admit(this);
}

void Facility::Admit(FacilityRequest* request) {
  if (busy_ < servers_) {
    StartService(request);
  } else {
    Enqueue(request);
  }
}

void Facility::Enqueue(FacilityRequest* request) {
  if (queue_tail_ == nullptr) {
    queue_head_ = queue_tail_ = request;
  } else {
    queue_tail_->next = request;
    queue_tail_ = request;
  }
  ++queue_len_;
  queue_stat_.Set(sim_->Now(), static_cast<double>(queue_len_));
}

FacilityRequest* Facility::Dequeue() {
  FacilityRequest* head = queue_head_;
  queue_head_ = head->next;
  if (queue_head_ == nullptr) queue_tail_ = nullptr;
  --queue_len_;
  queue_stat_.Set(sim_->Now(), static_cast<double>(queue_len_));
  return head;
}

void Facility::StartService(FacilityRequest* request) {
  ++busy_;
  busy_stat_.Set(sim_->Now(), busy_);
  request->facility = this;  // in service: EndService finds it here
  if (request->service == kServiceFromWork) {
    auto* serve = static_cast<ServeRequest*>(request);
    request->service = serve->work() / serve->work_rate;
  }
  sim_->ScheduleServiceEnd(sim_->Now() + request->service, request);
}

void FacilityRequest::EndService() { facility->OnServiceComplete(this); }

void Facility::OnServiceComplete(FacilityRequest* request) {
  --busy_;
  busy_stat_.Set(sim_->Now(), busy_);
  ++completed_;
  // Through the event queue, as every wake-up: the completion finishes
  // starting the next service before the waiter runs.
  sim_->ScheduleResumeNow(request->waiter);
  if (queue_head_ != nullptr && busy_ < servers_) {
    StartService(Dequeue());
  }
}

Task<WaitStatus> Facility::Use(SimTime service) {
  return Task<WaitStatus>::Parked(this, service);
}

Task<WaitStatus> Facility::UseBounded(SimTime service, size_t queue_bound) {
  if (Rejects(queue_bound)) {
    ++rejected_;
    return Task<WaitStatus>::Finished(WaitStatus::kRejected);
  }
  return Task<WaitStatus>::Parked(this, service);
}

Task<WaitStatus> Facility::Serve(WorkFn work, size_t queue_bound,
                                 double work_rate) {
  if (Rejects(queue_bound)) {
    ++rejected_;
    co_return WaitStatus::kRejected;
  }
  ServeRequest request;
  request.facility = this;
  request.service = kServiceFromWork;
  request.work = std::move(work);
  request.work_rate = work_rate;
  struct Parking {
    FacilityRequest* request;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { request->Park(h); }
    void await_resume() const noexcept {}
  };
  co_await Parking{&request};
  co_return WaitStatus::kSignaled;
}

double Facility::Utilization() const {
  return busy_stat_.Average(sim_->Now()) / servers_;
}

double Facility::MeanQueueLength() const {
  return queue_stat_.Average(sim_->Now());
}

void Facility::ResetStats() {
  busy_stat_.ResetAt(sim_->Now());
  queue_stat_.ResetAt(sim_->Now());
  completed_ = 0;
  rejected_ = 0;
}

}  // namespace lazyrep::sim
