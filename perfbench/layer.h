// Per-layer counters of the benchmark driver.
//
// Two implementations link against the same driver object:
//   layer_off.cc    plain build: nothing is counted, Traced() is false
//   layer_trace.cc  traced build: -Wl,--wrap= wrappers count and time calls
//                   into the layers' public entry points, and a global
//                   operator new counts heap allocations
// The driver resets the counters before each point and reads them after it.
#ifndef PERFBENCH_LAYER_H_
#define PERFBENCH_LAYER_H_

#include <cstdint>

namespace perfbench {

/// Calls into one group of entry points and their self time: the span's
/// duration minus the time of wrapped calls nested inside it.
struct SpanStat {
  uint64_t calls = 0;
  int64_t self_ns = 0;
};

struct LayerStats {
  // sim: EventQueue::Pop/ScheduleResume/ScheduleCallback/Cancel.
  SpanStat queue;
  uint64_t cancels = 0;       ///< Cancel calls that removed a pending event
  uint64_t peak_pending = 0;  ///< most events pending at once
  SpanStat stat_set;          ///< TimeWeightedStat::Set
  // hw: Facility::Use/UseBounded/Serve (coroutines: counted, not timed).
  uint64_t facility_uses = 0;
  // net: Network::Transfer/Multicast (counted).
  uint64_t transfers = 0;
  uint64_t multicasts = 0;
  // db: LockManager::Acquire is a coroutine (counted); the rest are timed.
  uint64_t lock_acquires = 0;
  SpanStat lock_release;  ///< LockManager::Release/ReleaseAll
  SpanStat store_apply;   ///< ItemStore::ApplyWrite
  SpanStat store_read;    ///< ItemStore::Read
  // rg: ReplicationGraph::RgTest/Remove.
  SpanStat rg_test;
  uint64_t rg_ok = 0;        ///< RgTest calls that returned kOk
  uint64_t check_edges = 0;  ///< GraphCost::check_edges added by RgTest
  SpanStat rg_remove;
  // fault: FaultInjector::OnDelivery.
  SpanStat delivery;
};

/// True in the traced build.
bool Traced();
/// Zeroes every counter (the heap-allocation count is not reset).
void ResetLayers();
const LayerStats& Layers();
/// Heap allocations through operator new since start-up (0 when untraced).
uint64_t HeapAllocs();

}  // namespace perfbench

#endif  // PERFBENCH_LAYER_H_
