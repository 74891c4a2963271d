// Unit tests for the discrete-event simulation kernel (src/sim).

#include <cmath>
#include <deque>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "hw/cpu.h"
#include "hw/disk.h"
#include "sim/condition.h"
#include "sim/event_queue.h"
#include "sim/facility.h"
#include "sim/frame_pool.h"
#include "sim/process.h"
#include "sim/random.h"
#include "sim/simulation.h"
#include "sim/stats.h"

namespace lazyrep::sim {
namespace {

// ---------------------------------------------------------------------------
// EventQueue
// ---------------------------------------------------------------------------

TEST(EventQueueTest, FiresCallbacksInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.ScheduleCallbackAt(3.0, [&] { order.push_back(3); });
  sim.ScheduleCallbackAt(1.0, [&] { order.push_back(1); });
  sim.ScheduleCallbackAt(2.0, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.Now(), 3.0);
}

TEST(EventQueueTest, SameTimeEventsFireInInsertionOrder) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.ScheduleCallbackAt(1.0, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueueTest, CancelPreventsFiring) {
  Simulation sim;
  bool fired = false;
  EventId id = sim.ScheduleCallbackAt(1.0, [&] { fired = true; });
  EXPECT_TRUE(sim.Cancel(id));
  sim.Run();
  EXPECT_FALSE(fired);
}

TEST(EventQueueTest, CancelIsIdempotentAndSafeOnStaleIds) {
  Simulation sim;
  EventId id = sim.ScheduleCallbackAt(1.0, [] {});
  EXPECT_TRUE(sim.Cancel(id));
  EXPECT_FALSE(sim.Cancel(id));       // second cancel is a no-op
  EXPECT_FALSE(sim.Cancel(EventId{}));  // invalid id is a no-op
}

TEST(EventQueueTest, CancelAfterFireIsSafe) {
  Simulation sim;
  EventId id = sim.ScheduleCallbackAt(1.0, [] {});
  sim.Run();
  EXPECT_FALSE(sim.Cancel(id));
}

TEST(EventQueueTest, SlotReuseDoesNotConfuseGenerations) {
  Simulation sim;
  EventId a = sim.ScheduleCallbackAt(1.0, [] {});
  EXPECT_TRUE(sim.Cancel(a));
  bool fired = false;
  EventId b = sim.ScheduleCallbackAt(2.0, [&] { fired = true; });
  // `a` should be stale even if it reused the same slot as `b`.
  EXPECT_FALSE(sim.Cancel(a));
  sim.Run();
  EXPECT_TRUE(fired);
  EXPECT_FALSE(sim.Cancel(b));
}

TEST(EventQueueTest, RunUntilStopsAtHorizon) {
  Simulation sim;
  int fired = 0;
  sim.ScheduleCallbackAt(1.0, [&] { ++fired; });
  sim.ScheduleCallbackAt(5.0, [&] { ++fired; });
  sim.Run(2.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.Now(), 2.0);
  sim.Run();
  EXPECT_EQ(fired, 2);
}

Process Record(std::vector<std::string>* order, std::string name) {
  order->push_back(std::move(name));
  co_return;
}

Process WaitThenRecord(OneShot* shot, std::vector<std::string>* order) {
  co_await shot->Wait();
  order->push_back("woken");
}

// Zero-delay events join the same-instant lane; the heap still holds the
// events scheduled earlier for that instant, which come first in (time, seq)
// order. Then the lane fires in FIFO order, nested zero-delay events last.
TEST(EventQueueTest, EarlierScheduledEventsAtAnInstantFireBeforeZeroDelayOnes) {
  Simulation sim;
  std::vector<std::string> order;
  OneShot shot(&sim);
  sim.Spawn(WaitThenRecord(&shot, &order));
  sim.ScheduleCallbackAt(1.0, [&] {
    order.push_back("a");
    sim.ScheduleCallbackAt(sim.Now(), [&] {
      order.push_back("z0");
      sim.ScheduleCallbackAt(sim.Now(), [&] { order.push_back("nested"); });
    });
    sim.Spawn(Record(&order, "z1"));
    shot.Fire(WaitStatus::kSignaled);
    sim.ScheduleCallbackAt(sim.Now(), [&] { order.push_back("z2"); });
    EXPECT_EQ(sim.event_queue().lane_size(), 4u);
    EXPECT_EQ(sim.event_queue().heap_size(), 3u);  // b, c and d
  });
  sim.ScheduleCallbackAt(1.0, [&] { order.push_back("b"); });
  sim.ScheduleCallbackAt(2.0, [&] { order.push_back("d"); });
  sim.ScheduleCallbackAt(1.0, [&] { order.push_back("c"); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<std::string>{"a", "b", "c", "z0", "z1",
                                             "woken", "z2", "nested", "d"}));
  EXPECT_EQ(sim.event_queue().lane_size(), 0u);
}

Process WakeCounter(OneShot* shot, int* woken) {
  co_await shot->Wait();
  ++*woken;
}

Process SpawnCounter(int* ran) {
  ++*ran;
  co_return;
}

// A zero-delay wake-up is its frame address in the lane: a burst of
// OneShot::Fire wake-ups and Spawns at the current instant takes no event
// slot. The burst's own delay is a heap resume and does take one.
Process WakeBurst(Simulation* sim, std::deque<OneShot>* shots, int* ran,
                  size_t* slots_before) {
  co_await sim->Delay(1.0);
  *slots_before = sim->event_queue().slot_count();
  for (OneShot& shot : *shots) shot.Fire(WaitStatus::kSignaled);
  for (size_t i = 0; i < shots->size(); ++i) sim->Spawn(SpawnCounter(ran));
  EXPECT_EQ(sim->event_queue().lane_size(), 2 * shots->size());
}

TEST(EventQueueTest, ZeroDelayWakeUpsAndSpawnsTakeNoSlot) {
  constexpr int kWaiters = 200;
  Simulation sim;
  std::deque<OneShot> shots;
  for (int i = 0; i < kWaiters; ++i) shots.emplace_back(&sim);
  int woken = 0;
  int ran = 0;
  size_t slots_before = 0;
  for (OneShot& shot : shots) sim.Spawn(WakeCounter(&shot, &woken));
  sim.Spawn(WakeBurst(&sim, &shots, &ran, &slots_before));
  EXPECT_EQ(sim.event_queue().slot_count(), 0u);  // spawns at time 0
  sim.Run();
  EXPECT_EQ(woken, kWaiters);
  EXPECT_EQ(ran, kWaiters);
  EXPECT_EQ(slots_before, 1u);  // the delay's
  EXPECT_EQ(sim.event_queue().slot_count(), slots_before);
  // The first spawns, the delay, the wake-ups and the burst's spawns.
  EXPECT_EQ(sim.events_fired(), static_cast<uint64_t>(3 * kWaiters + 2));
}

// Runs: heap pushes for the instant of the previous heap push share its node
// while that node is queued, and fire FIFO.
TEST(EventQueueTest, SchedulesForOneInstantShareOneHeapNode) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 99; ++i) {
    q.ScheduleCallback(1.0, [&order, i] { order.push_back(i); });
  }
  EXPECT_EQ(q.heap_nodes_opened(), 1u);
  EXPECT_EQ(q.heap_size(), 99u);
  while (!q.Empty()) q.Pop().callback();
  std::vector<int> want(99);
  for (int i = 0; i < 99; ++i) want[i] = i;
  EXPECT_EQ(order, want);
}

TEST(EventQueueTest, PushAfterAnotherInstantOpensANewNode) {
  EventQueue q;
  std::vector<std::string> order;
  q.ScheduleCallback(1.0, [&] { order.push_back("a"); });
  q.ScheduleCallback(2.0, [&] { order.push_back("b"); });
  q.ScheduleCallback(1.0, [&] { order.push_back("c"); });
  EXPECT_EQ(q.heap_nodes_opened(), 3u);
  while (!q.Empty()) q.Pop().callback();
  EXPECT_EQ(order, (std::vector<std::string>{"a", "c", "b"}));
}

TEST(EventQueueTest, CancellingTheOpenTailAppendsAfterItsPredecessor) {
  EventQueue q;
  std::vector<std::string> order;
  q.ScheduleCallback(1.0, [&] { order.push_back("a"); });
  EventId b = q.ScheduleCallback(1.0, [&] { order.push_back("b"); });
  EXPECT_TRUE(q.Cancel(b));
  q.ScheduleCallback(1.0, [&] { order.push_back("c"); });
  EXPECT_EQ(q.heap_nodes_opened(), 1u);
  EXPECT_EQ(q.heap_size(), 2u);
  while (!q.Empty()) q.Pop().callback();
  EXPECT_EQ(order, (std::vector<std::string>{"a", "c"}));
}

// Once a run's node fires, later events for its instant join the lane, so
// they fire after the run's remaining members.
TEST(EventQueueTest, PushAfterTheRunBeganFiringJoinsTheLane) {
  Simulation sim;
  std::vector<std::string> order;
  sim.ScheduleCallbackAt(1.0, [&] {
    order.push_back("a");
    sim.ScheduleCallbackAt(sim.Now(), [&] { order.push_back("d"); });
    EXPECT_EQ(sim.event_queue().lane_size(), 1u);
    EXPECT_EQ(sim.event_queue().heap_size(), 2u);  // b and c
  });
  sim.ScheduleCallbackAt(1.0, [&] { order.push_back("b"); });
  sim.ScheduleCallbackAt(1.0, [&] { order.push_back("c"); });
  sim.Run();
  EXPECT_EQ(sim.event_queue().heap_nodes_opened(), 1u);
  EXPECT_EQ(order, (std::vector<std::string>{"a", "b", "c", "d"}));
}

// The top slot: a node that sorts before every queued node waits outside
// the 4-ary heap. 10 takes the empty slot, 5 displaces it into the heap, and
// 7 enters the heap behind 5; the pops take 5 from the slot, then 7 and 10.
TEST(EventQueueTest, ANewEarliestNodeNeverEntersTheHeap) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleCallback(10.0, [&] { order.push_back(10); });
  EXPECT_EQ(q.heap_entries(), 0u);
  q.ScheduleCallback(5.0, [&] { order.push_back(5); });
  EXPECT_EQ(q.heap_entries(), 1u);  // 10, displaced
  q.ScheduleCallback(7.0, [&] { order.push_back(7); });
  EXPECT_EQ(q.heap_entries(), 2u);
  EXPECT_EQ(q.heap_nodes_opened(), 3u);
  EXPECT_EQ(q.heap_size(), 3u);
  while (!q.Empty()) q.Pop().callback();
  EXPECT_EQ(order, (std::vector<int>{5, 7, 10}));
  EXPECT_EQ(q.heap_entries(), 2u);
}

TEST(EventQueueTest, ManyEventsStressOrdering) {
  Simulation sim;
  RandomStream rng(42);
  double last = -1;
  int count = 0;
  for (int i = 0; i < 20000; ++i) {
    double t = rng.Uniform(0, 100);
    sim.ScheduleCallbackAt(t, [&, t] {
      EXPECT_LE(last, t);
      last = t;
      ++count;
    });
  }
  sim.Run();
  EXPECT_EQ(count, 20000);
}

// ---------------------------------------------------------------------------
// Process / Delay
// ---------------------------------------------------------------------------

Process DelayTwice(Simulation* sim, std::vector<double>* times) {
  co_await sim->Delay(1.5);
  times->push_back(sim->Now());
  co_await sim->Delay(2.5);
  times->push_back(sim->Now());
}

TEST(ProcessTest, DelayAdvancesClock) {
  Simulation sim;
  std::vector<double> times;
  sim.Spawn(DelayTwice(&sim, &times));
  sim.Run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 1.5);
  EXPECT_DOUBLE_EQ(times[1], 4.0);
}

Process Increment(Simulation* sim, int* counter, double delay) {
  co_await sim->Delay(delay);
  ++*counter;
}

TEST(ProcessTest, ManyConcurrentProcesses) {
  Simulation sim;
  int counter = 0;
  for (int i = 0; i < 1000; ++i) {
    sim.Spawn(Increment(&sim, &counter, 0.001 * i));
  }
  sim.Run();
  EXPECT_EQ(counter, 1000);
}

Task<int> AddAfterDelay(Simulation* sim, int a, int b) {
  co_await sim->Delay(1.0);
  co_return a + b;
}

Task<int> NestedTask(Simulation* sim) {
  int x = co_await AddAfterDelay(sim, 1, 2);
  int y = co_await AddAfterDelay(sim, x, 10);
  co_return y;
}

Process RunNested(Simulation* sim, int* out, double* when) {
  *out = co_await NestedTask(sim);
  *when = sim->Now();
}

TEST(ProcessTest, NestedTasksComposeAndPropagateValues) {
  Simulation sim;
  int out = 0;
  double when = 0;
  sim.Spawn(RunNested(&sim, &out, &when));
  sim.Run();
  EXPECT_EQ(out, 13);
  EXPECT_DOUBLE_EQ(when, 2.0);
}

Task<void> VoidTask(Simulation* sim, int* flag) {
  co_await sim->Delay(0.5);
  *flag = 7;
  co_return;
}

Process RunVoid(Simulation* sim, int* flag) { co_await VoidTask(sim, flag); }

TEST(ProcessTest, VoidTasksWork) {
  Simulation sim;
  int flag = 0;
  sim.Spawn(RunVoid(&sim, &flag));
  sim.Run();
  EXPECT_EQ(flag, 7);
}

Task<int> DeepRecursion(Simulation* sim, int depth) {
  if (depth == 0) co_return 0;
  int below = co_await DeepRecursion(sim, depth - 1);
  co_return below + 1;
}

Process RunDeep(Simulation* sim, int* out) {
  *out = co_await DeepRecursion(sim, 500);
}

TEST(ProcessTest, DeeplyNestedTasksViaSymmetricTransfer) {
  Simulation sim;
  int out = 0;
  sim.Spawn(RunDeep(&sim, &out));
  sim.Run();
  EXPECT_EQ(out, 500);
}

// ---------------------------------------------------------------------------
// OneShot / Countdown
// ---------------------------------------------------------------------------

Process WaitOn(Simulation* sim, OneShot* shot, SimTime timeout,
               WaitStatus* result, double* when) {
  *result = co_await shot->Wait(timeout);
  *when = sim->Now();
}

TEST(OneShotTest, SignalWakesWaiter) {
  Simulation sim;
  OneShot shot(&sim);
  WaitStatus result = WaitStatus::kTimeout;
  double when = -1;
  sim.Spawn(WaitOn(&sim, &shot, kTimeInfinity, &result, &when));
  sim.ScheduleCallbackAt(3.0, [&] { shot.Fire(WaitStatus::kSignaled); });
  sim.Run();
  EXPECT_EQ(result, WaitStatus::kSignaled);
  EXPECT_DOUBLE_EQ(when, 3.0);
}

TEST(OneShotTest, TimeoutFiresWhenNoSignal) {
  Simulation sim;
  OneShot shot(&sim);
  WaitStatus result = WaitStatus::kSignaled;
  double when = -1;
  sim.Spawn(WaitOn(&sim, &shot, 2.0, &result, &when));
  sim.Run();
  EXPECT_EQ(result, WaitStatus::kTimeout);
  EXPECT_DOUBLE_EQ(when, 2.0);
}

TEST(OneShotTest, SignalBeatsLaterTimeout) {
  Simulation sim;
  OneShot shot(&sim);
  WaitStatus result = WaitStatus::kTimeout;
  double when = -1;
  sim.Spawn(WaitOn(&sim, &shot, 5.0, &result, &when));
  sim.ScheduleCallbackAt(1.0, [&] { shot.Fire(WaitStatus::kSignaled); });
  sim.Run();
  EXPECT_EQ(result, WaitStatus::kSignaled);
  EXPECT_DOUBLE_EQ(when, 1.0);
  EXPECT_EQ(sim.pending_events(), 0u);  // timeout event was cancelled
}

TEST(OneShotTest, PreFiredStatusDeliveredImmediately) {
  Simulation sim;
  OneShot shot(&sim);
  shot.Fire(WaitStatus::kCancelled);
  WaitStatus result = WaitStatus::kSignaled;
  double when = -1;
  sim.Spawn(WaitOn(&sim, &shot, kTimeInfinity, &result, &when));
  sim.Run();
  EXPECT_EQ(result, WaitStatus::kCancelled);
  EXPECT_DOUBLE_EQ(when, 0.0);
}

TEST(OneShotTest, SecondFireIsIgnored) {
  Simulation sim;
  OneShot shot(&sim);
  EXPECT_TRUE(shot.Fire(WaitStatus::kSignaled));
  EXPECT_FALSE(shot.Fire(WaitStatus::kCancelled));
  WaitStatus result = WaitStatus::kTimeout;
  double when = -1;
  sim.Spawn(WaitOn(&sim, &shot, kTimeInfinity, &result, &when));
  sim.Run();
  EXPECT_EQ(result, WaitStatus::kSignaled);
}

TEST(OneShotTest, ResetAllowsReuse) {
  Simulation sim;
  OneShot shot(&sim);
  shot.Fire(WaitStatus::kSignaled);
  shot.Reset();
  EXPECT_FALSE(shot.fired());
  WaitStatus result = WaitStatus::kSignaled;
  double when = -1;
  sim.Spawn(WaitOn(&sim, &shot, 1.0, &result, &when));
  sim.Run();
  EXPECT_EQ(result, WaitStatus::kTimeout);
}

Process WaitCountdown(Simulation* sim, Countdown* cd, WaitStatus* result,
                      double* when) {
  *result = co_await cd->Wait();
  *when = sim->Now();
}

TEST(CountdownTest, FiresWhenAllArrive) {
  Simulation sim;
  Countdown cd(&sim, 3);
  WaitStatus result = WaitStatus::kTimeout;
  double when = -1;
  sim.Spawn(WaitCountdown(&sim, &cd, &result, &when));
  sim.ScheduleCallbackAt(1.0, [&] { cd.Arrive(); });
  sim.ScheduleCallbackAt(2.0, [&] { cd.Arrive(); });
  sim.ScheduleCallbackAt(4.0, [&] { cd.Arrive(); });
  sim.Run();
  EXPECT_EQ(result, WaitStatus::kSignaled);
  EXPECT_DOUBLE_EQ(when, 4.0);
}

TEST(CountdownTest, ZeroCountIsImmediatelyReady) {
  Simulation sim;
  Countdown cd(&sim, 0);
  WaitStatus result = WaitStatus::kTimeout;
  double when = -1;
  sim.Spawn(WaitCountdown(&sim, &cd, &result, &when));
  sim.Run();
  EXPECT_EQ(result, WaitStatus::kSignaled);
  EXPECT_DOUBLE_EQ(when, 0.0);
}

TEST(CountdownTest, CancelDeliversCancelled) {
  Simulation sim;
  Countdown cd(&sim, 2);
  WaitStatus result = WaitStatus::kSignaled;
  double when = -1;
  sim.Spawn(WaitCountdown(&sim, &cd, &result, &when));
  sim.ScheduleCallbackAt(1.0, [&] { cd.Arrive(); });
  sim.ScheduleCallbackAt(2.0, [&] { cd.Cancel(); });
  sim.Run();
  EXPECT_EQ(result, WaitStatus::kCancelled);
  EXPECT_DOUBLE_EQ(when, 2.0);
}

// ---------------------------------------------------------------------------
// Facility
// ---------------------------------------------------------------------------

Process UseFacility(Simulation* sim, Facility* fac, SimTime service,
                    std::vector<double>* done_times) {
  co_await fac->Use(service);
  done_times->push_back(sim->Now());
}

TEST(FacilityTest, SingleServerSerializesFcfs) {
  Simulation sim;
  Facility fac(&sim, "cpu");
  std::vector<double> done;
  for (int i = 0; i < 3; ++i) sim.Spawn(UseFacility(&sim, &fac, 2.0, &done));
  sim.Run();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_DOUBLE_EQ(done[0], 2.0);
  EXPECT_DOUBLE_EQ(done[1], 4.0);
  EXPECT_DOUBLE_EQ(done[2], 6.0);
}

TEST(FacilityTest, MultiServerRunsInParallel) {
  Simulation sim;
  Facility fac(&sim, "disks", 3);
  std::vector<double> done;
  for (int i = 0; i < 3; ++i) sim.Spawn(UseFacility(&sim, &fac, 2.0, &done));
  sim.Run();
  ASSERT_EQ(done.size(), 3u);
  for (double t : done) EXPECT_DOUBLE_EQ(t, 2.0);
}

TEST(FacilityTest, UtilizationAccounting) {
  Simulation sim;
  Facility fac(&sim, "cpu");
  std::vector<double> done;
  sim.Spawn(UseFacility(&sim, &fac, 3.0, &done));
  sim.Run();
  // Busy 3s; clock is 3s -> utilization 1.0 over the busy window.
  EXPECT_NEAR(fac.Utilization(), 1.0, 1e-9);
  // Now idle until t=6 via a dummy event; utilization halves.
  sim.ScheduleCallbackAt(6.0, [] {});
  sim.Run();
  EXPECT_NEAR(fac.Utilization(), 0.5, 1e-9);
  EXPECT_EQ(fac.completed(), 1u);
}

TEST(FacilityTest, ResetStatsDiscardsHistory) {
  Simulation sim;
  Facility fac(&sim, "cpu");
  std::vector<double> done;
  sim.Spawn(UseFacility(&sim, &fac, 3.0, &done));
  sim.Run();
  fac.ResetStats();
  sim.ScheduleCallbackAt(6.0, [] {});
  sim.Run();
  EXPECT_NEAR(fac.Utilization(), 0.0, 1e-9);
  EXPECT_EQ(fac.completed(), 0u);
}

Process UseBoundedFacility(Simulation* sim, Facility* fac, SimTime service,
                           size_t bound, std::vector<WaitStatus>* results) {
  WaitStatus s = co_await fac->UseBounded(service, bound);
  results->push_back(s);
  (void)sim;
}

TEST(FacilityTest, BoundedQueueRejectsOverflow) {
  Simulation sim;
  Facility fac(&sim, "graph_cpu");
  std::vector<WaitStatus> results;
  // First request occupies the server, next two fill the bound-2 queue, the
  // fourth is rejected immediately.
  for (int i = 0; i < 4; ++i) {
    sim.Spawn(UseBoundedFacility(&sim, &fac, 1.0, 2, &results));
  }
  sim.Run();
  ASSERT_EQ(results.size(), 4u);
  int rejected = 0;
  for (WaitStatus s : results) {
    if (s == WaitStatus::kRejected) ++rejected;
  }
  EXPECT_EQ(rejected, 1);
  EXPECT_EQ(fac.rejected(), 1u);
  EXPECT_EQ(fac.completed(), 3u);
}

// -- the frame-free forms of a kernel wait -------------------------------------

/// What one awaited kernel wait cost its awaiter: the events fired and the
/// frames built between the call and the resumption.
struct WaitCost {
  WaitStatus status = WaitStatus::kSignaled;
  uint64_t events = 0;
  uint64_t frames = 0;
  SimTime elapsed = 0;
};

template <typename MakeWait>
Process MeasureWait(Simulation* sim, MakeWait make, WaitCost* cost) {
  const uint64_t events0 = sim->events_fired();
  const uint64_t frames0 = FramePoolThreadStats().frames();
  const SimTime t0 = sim->Now();
  WaitStatus status = co_await make();
  cost->status = status;
  cost->events = sim->events_fired() - events0;
  cost->frames = FramePoolThreadStats().frames() - frames0;
  cost->elapsed = sim->Now() - t0;
}

TEST(KernelWaitTest, CpuExecuteFiresItsCompletionAndWakeUpAndBuildsNoFrame) {
  Simulation sim;
  hw::Cpu cpu(&sim, "cpu", 100);  // 100 MIPS
  WaitCost cost;
  sim.Spawn(MeasureWait(&sim, [&cpu] { return cpu.Execute(2e6); }, &cost));
  sim.Run();
  EXPECT_EQ(cost.status, WaitStatus::kSignaled);
  EXPECT_EQ(cost.events, 2u);  // the service completion, then the wake-up
  EXPECT_EQ(cost.frames, 0u);
  EXPECT_DOUBLE_EQ(cost.elapsed, 0.02);
}

TEST(KernelWaitTest, UseBoundedRejectionFinishesWithoutSuspending) {
  Simulation sim;
  Facility fac(&sim, "graph_cpu");
  std::vector<double> done;
  WaitCost cost;
  sim.Spawn(UseFacility(&sim, &fac, 1.0, &done));  // occupies the server
  sim.Spawn(MeasureWait(&sim, [&fac] { return fac.UseBounded(1.0, 0); },
                        &cost));
  sim.Run();
  EXPECT_EQ(cost.status, WaitStatus::kRejected);
  EXPECT_EQ(cost.events, 0u);  // no suspension: nothing had to resume it
  EXPECT_EQ(cost.frames, 0u);
  EXPECT_EQ(fac.rejected(), 1u);
  EXPECT_EQ(fac.completed(), 1u);
}

TEST(KernelWaitTest, BufferHitReadPageFinishesWithoutSuspending) {
  Simulation sim;
  hw::DiskParams params;
  params.buffer_miss_ratio = 0;  // every page is in the buffer
  hw::DiskSubsystem disk(&sim, "disk", params, 1);
  WaitCost cost;
  sim.Spawn(MeasureWait(&sim, [&disk] { return disk.ReadPage(4096); }, &cost));
  sim.Run();
  EXPECT_EQ(cost.events, 0u);
  EXPECT_EQ(cost.frames, 0u);
  EXPECT_EQ(disk.buffer_hits(), 1u);
  EXPECT_EQ(disk.physical_reads(), 0u);
}

Process ServeFacility(Simulation* sim, Facility* fac, int id, SimTime service,
                      std::vector<int>* started,
                      std::vector<double>* done_times) {
  WaitStatus s = co_await fac->Serve(
      [started, id, service] {
        started->push_back(id);
        return service;
      },
      SIZE_MAX);
  EXPECT_EQ(s, WaitStatus::kSignaled);
  done_times->push_back(sim->Now());
}

TEST(FacilityTest, UseAndServeShareOneFcfsQueue) {
  Simulation sim;
  Facility fac(&sim, "graph_cpu");
  std::vector<int> served;
  std::vector<double> done;
  // A Use holds the server for 1 s; two Serves and a Use queue behind it.
  // Each Serve's work runs when its service starts, in queue order.
  sim.Spawn(UseFacility(&sim, &fac, 1.0, &done));
  sim.Spawn(ServeFacility(&sim, &fac, 1, 2.0, &served, &done));
  sim.Spawn(UseFacility(&sim, &fac, 0.5, &done));
  sim.Spawn(ServeFacility(&sim, &fac, 2, 0.25, &served, &done));
  sim.ScheduleCallbackAt(0.5, [&] { EXPECT_TRUE(served.empty()); });
  sim.Run();
  EXPECT_EQ(served, (std::vector<int>{1, 2}));
  EXPECT_EQ(done, (std::vector<double>{1.0, 3.0, 3.5, 3.75}));
  EXPECT_EQ(fac.completed(), 4u);
  EXPECT_NEAR(fac.Utilization(), 1.0, 1e-9);
  // Waiting: 3 requests over [0, 1), 2 over [1, 3), 1 over [3, 3.5).
  EXPECT_NEAR(fac.MeanQueueLength(), (3 * 1.0 + 2 * 2.0 + 1 * 0.5) / 3.75,
              1e-9);
}

/// "name:n", n the facility's completed services.
std::string WithCompleted(const char* name, const Facility& fac) {
  std::string s = name;
  s += ':';
  s += std::to_string(fac.completed());
  return s;
}

/// Records `name` with the facility's completed services when it resumes
/// at `at`.
Process RecordAt(Simulation* sim, SimTime at, const Facility* fac,
                 std::vector<std::string>* order, const char* name) {
  co_await sim->DelayUntil(at);
  order->push_back(WithCompleted(name, *fac));
}

Process ServedUser(Facility* fac, SimTime service, bool serve,
                   std::vector<std::string>* order) {
  WaitStatus status;
  if (serve) {
    status = co_await fac->Serve([service] { return service; }, SIZE_MAX);
  } else {
    status = co_await fac->Use(service);
  }
  EXPECT_EQ(status, WaitStatus::kSignaled);
  order->push_back(WithCompleted("woken", *fac));
}

// A service end is an event like any other, made of its request's address:
// at its instant it fires in seq order among the callbacks and resumes
// scheduled for that instant, in the heap (a positive service time) and in
// the same-instant lane (zero), on one server and beside a busy second one,
// for Use and for Serve. Its wake-up follows at the same instant. Each
// record carries the completed services it saw.
TEST(FacilityTest, ServiceEndFiresInSeqOrderBesideCallbacksAndResumes) {
  for (bool serve : {false, true}) {
    for (int servers : {1, 2}) {
      for (SimTime service : {1.0, 0.0}) {
        SCOPED_TRACE(testing::Message() << "serve=" << serve << " servers="
                                        << servers << " service=" << service);
        Simulation sim;
        Facility fac(&sim, "cpu", servers);
        std::vector<std::string> order;
        std::vector<double> occupant_done;
        if (servers == 2) {
          sim.Spawn(UseFacility(&sim, &fac, 10.0, &occupant_done));
        }
        auto record_at = [&](const char* name) {
          sim.ScheduleCallbackAt(0.0, [&sim, &fac, &order, service, name] {
            sim.ScheduleCallbackAt(service, [&fac, &order, name] {
              order.push_back(WithCompleted(name, fac));
            });
          });
        };
        // Each step at time 0 schedules one event for `service`, in this
        // order: a resume, a callback, the service end, a resume, a callback.
        sim.Spawn(RecordAt(&sim, service, &fac, &order, "resume1"));
        record_at("callback1");
        sim.Spawn(ServedUser(&fac, service, serve, &order));
        sim.Spawn(RecordAt(&sim, service, &fac, &order, "resume2"));
        record_at("callback2");
        sim.Run(service);
        EXPECT_EQ(order, (std::vector<std::string>{"resume1:0", "callback1:0",
                                                   "resume2:1", "callback2:1",
                                                   "woken:1"}));
        EXPECT_EQ(fac.completed(), 1u);
        sim.Run();
        EXPECT_EQ(fac.completed(), static_cast<uint64_t>(servers));
      }
    }
  }
}

TEST(KernelWaitDeathTest, UnawaitedParkedWaitFailsTheCheck) {
  EXPECT_DEATH(
      {
        Simulation sim;
        Facility fac(&sim, "cpu");
        (void)fac.Use(1.0);
      },
      "kernel wait destroyed unawaited");
}

TEST(KernelWaitDeathTest, UnawaitedFinishedWaitFailsTheCheck) {
  EXPECT_DEATH(
      { (void)Task<WaitStatus>::Finished(WaitStatus::kSignaled); },
      "kernel wait destroyed unawaited");
}

TEST(FacilityTest, MeanQueueLengthTracksWaiters) {
  Simulation sim;
  Facility fac(&sim, "cpu");
  std::vector<double> done;
  // Two requests at t=0: one served [0,2], one queued [0,2] then served [2,4].
  sim.Spawn(UseFacility(&sim, &fac, 2.0, &done));
  sim.Spawn(UseFacility(&sim, &fac, 2.0, &done));
  sim.Run();
  // Queue held 1 waiter for 2s out of 4s -> mean 0.5.
  EXPECT_NEAR(fac.MeanQueueLength(), 0.5, 1e-9);
}

// ---------------------------------------------------------------------------
// RandomStream
// ---------------------------------------------------------------------------

TEST(RandomTest, UniformMomentsAreSane) {
  RandomStream rng(1);
  TallyStat stat;
  for (int i = 0; i < 100000; ++i) stat.Add(rng.Uniform01());
  EXPECT_NEAR(stat.Mean(), 0.5, 0.01);
  EXPECT_NEAR(stat.Variance(), 1.0 / 12.0, 0.01);
  EXPECT_GE(stat.Min(), 0.0);
  EXPECT_LT(stat.Max(), 1.0);
}

TEST(RandomTest, ExponentialMeanMatches) {
  RandomStream rng(2);
  TallyStat stat;
  for (int i = 0; i < 100000; ++i) stat.Add(rng.Exponential(0.25));
  EXPECT_NEAR(stat.Mean(), 0.25, 0.01);
  // Exponential: stddev == mean.
  EXPECT_NEAR(stat.StdDev(), 0.25, 0.01);
}

TEST(RandomTest, UniformIntCoversRangeInclusive) {
  RandomStream rng(3);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    int64_t v = rng.UniformInt(5, 15);
    EXPECT_GE(v, 5);
    EXPECT_LE(v, 15);
    if (v == 5) saw_lo = true;
    if (v == 15) saw_hi = true;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RandomTest, SameSeedSameSequence) {
  RandomStream a(99);
  RandomStream b(99);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Uniform01(), b.Uniform01());
}

TEST(RandomTest, ForkedStreamsDiffer) {
  RandomStream parent(7);
  RandomStream child = parent.Fork();
  RandomStream parent2(7);
  RandomStream child2 = parent2.Fork();
  // Deterministic forking...
  EXPECT_EQ(child.Uniform01(), child2.Uniform01());
  // ...but the child differs from a fresh parent stream.
  RandomStream fresh(7);
  bool all_equal = true;
  RandomStream child3 = RandomStream(7).Fork();
  for (int i = 0; i < 10; ++i) {
    if (fresh.Uniform01() != child3.Uniform01()) all_equal = false;
  }
  EXPECT_FALSE(all_equal);
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

TEST(StatsTest, TallyBasics) {
  TallyStat s;
  s.Add(1);
  s.Add(2);
  s.Add(3);
  EXPECT_EQ(s.Count(), 3u);
  EXPECT_DOUBLE_EQ(s.Mean(), 2.0);
  EXPECT_DOUBLE_EQ(s.Variance(), 1.0);
  EXPECT_DOUBLE_EQ(s.Min(), 1.0);
  EXPECT_DOUBLE_EQ(s.Max(), 3.0);
  EXPECT_DOUBLE_EQ(s.Sum(), 6.0);
}

TEST(StatsTest, EmptyTallyIsZero) {
  TallyStat s;
  EXPECT_EQ(s.Count(), 0u);
  EXPECT_DOUBLE_EQ(s.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.Variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.HalfWidth95(), 0.0);
}

TEST(StatsTest, HalfWidthShrinksWithSamples) {
  RandomStream rng(5);
  TallyStat small;
  TallyStat large;
  for (int i = 0; i < 100; ++i) small.Add(rng.Uniform01());
  for (int i = 0; i < 10000; ++i) large.Add(rng.Uniform01());
  EXPECT_GT(small.HalfWidth95(), large.HalfWidth95());
  // Known half-width for uniform: 1.96 * sqrt(1/12) / sqrt(n).
  EXPECT_NEAR(large.HalfWidth95(), 1.96 * std::sqrt(1.0 / 12.0) / 100.0,
              0.001);
}

TEST(StatsTest, TimeWeightedAverage) {
  TimeWeightedStat tw;
  tw.Start(0.0, 0.0);
  tw.Set(2.0, 4.0);   // value 0 over [0,2]
  tw.Set(6.0, 1.0);   // value 4 over [2,6]
  // At t=8: integral = 0*2 + 4*4 + 1*2 = 18; average = 18/8.
  EXPECT_DOUBLE_EQ(tw.Average(8.0), 18.0 / 8.0);
  EXPECT_DOUBLE_EQ(tw.Value(), 1.0);
}

TEST(StatsTest, TimeWeightedResetKeepsValue) {
  TimeWeightedStat tw;
  tw.Start(0.0, 3.0);
  tw.ResetAt(10.0);
  EXPECT_DOUBLE_EQ(tw.Average(20.0), 3.0);
  EXPECT_DOUBLE_EQ(tw.Integral(20.0), 30.0);
}

TEST(StatsTest, FormatWithCiIsReadable) {
  TallyStat s;
  for (int i = 0; i < 100; ++i) s.Add(0.5);
  std::string text = FormatWithCi(s);
  EXPECT_NE(text.find("0.5000"), std::string::npos);
  EXPECT_NE(text.find("±"), std::string::npos);
}

TEST(QuantileTest, ExactOnUniformGrid) {
  QuantileStat q;
  for (int i = 1; i <= 1000; ++i) q.Add(i * 0.001);  // 1ms .. 1s
  // 5% bucket resolution: quantiles within 6% of truth.
  EXPECT_NEAR(q.P50(), 0.5, 0.5 * 0.06);
  EXPECT_NEAR(q.P95(), 0.95, 0.95 * 0.06);
  EXPECT_NEAR(q.P99(), 0.99, 0.99 * 0.06);
  EXPECT_DOUBLE_EQ(q.Max(), 1.0);
}

TEST(QuantileTest, HeavyTailCaptured) {
  QuantileStat q;
  for (int i = 0; i < 990; ++i) q.Add(0.01);
  for (int i = 0; i < 10; ++i) q.Add(2.0);
  EXPECT_NEAR(q.P50(), 0.01, 0.01 * 0.06);
  EXPECT_NEAR(q.Quantile(0.995), 2.0, 2.0 * 0.06);
}

TEST(QuantileTest, TinyAndHugeValuesClamp) {
  QuantileStat q;
  q.Add(1e-9);   // below resolution floor
  q.Add(1e6);    // beyond the last bucket
  EXPECT_EQ(q.Count(), 2u);
  EXPECT_LE(q.Quantile(0.0), 1e-5);
  EXPECT_DOUBLE_EQ(q.Max(), 1e6);
}

TEST(QuantileTest, EmptyIsZero) {
  QuantileStat q;
  EXPECT_DOUBLE_EQ(q.P95(), 0.0);
}

}  // namespace
}  // namespace lazyrep::sim
