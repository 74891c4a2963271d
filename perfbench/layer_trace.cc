// Traced build of the layer counters.
//
// The link step passes -Wl,--wrap=<symbol> for each entry point below (see
// CMakeLists.txt), so calls into it from other object files land in
// __wrap_<symbol>, which counts the call, times it with steady_clock where
// timing means something, and forwards to __real_<symbol>. Coroutine entries
// (Facility::Use, LockManager::Acquire, Network::Transfer) only create a
// task whose body runs interleaved with the event loop, so they are counted.
//
// Each wrapper is a free function whose first parameter is the object: the
// Itanium C++ ABI passes `this` like a leading pointer argument, a hidden
// return-slot pointer before it, and a by-value class that is non-trivial
// for calls (InlineFunction) as a pointer to the caller's temporary.
// A misspelt symbol fails the link, because its __real_ name is undefined.
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>
#include <span>
#include <type_traits>
#include <vector>

#include "db/item_store.h"
#include "db/lock_manager.h"
#include "fault/fault_injector.h"
#include "layer.h"
#include "net/network.h"
#include "rg/replication_graph.h"
#include "sim/event_queue.h"
#include "sim/facility.h"
#include "sim/stats.h"

namespace perfbench {
namespace {

std::atomic<uint64_t> g_allocs{0};
LayerStats g_stats;
uint64_t g_pending = 0;

// g_child_ns[d] sums the durations of the wrapped calls nested directly in
// the span open at depth d, so that span can report its self time.
constexpr int kMaxDepth = 32;
int64_t g_child_ns[kMaxDepth + 1] = {};
int g_depth = 0;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Span {
 public:
  explicit Span(SpanStat* stat) : stat_(stat), start_(NowNs()) {
    if (g_depth == kMaxDepth) std::abort();
    g_child_ns[++g_depth] = 0;
  }
  ~Span() {
    const int64_t elapsed = NowNs() - start_;
    stat_->self_ns += elapsed - g_child_ns[g_depth];
    ++stat_->calls;
    g_child_ns[--g_depth] += elapsed;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanStat* stat_;
  int64_t start_;
};

void NoteScheduled() {
  if (++g_pending > g_stats.peak_pending) g_stats.peak_pending = g_pending;
}

}  // namespace

bool Traced() { return true; }

void ResetLayers() {
  g_stats = LayerStats{};
  g_pending = 0;
}

const LayerStats& Layers() { return g_stats; }

uint64_t HeapAllocs() { return g_allocs.load(std::memory_order_relaxed); }

}  // namespace perfbench

// -- wrapped entry points -------------------------------------------------------

namespace perfbench::wrap {

using lazyrep::db::ItemId;
using lazyrep::db::ItemStore;
using lazyrep::db::LockManager;
using lazyrep::db::LockMode;
using lazyrep::db::Operation;
using lazyrep::db::SiteId;
using lazyrep::db::Timestamp;
using lazyrep::db::TxnId;
using lazyrep::fault::FaultInjector;
using lazyrep::net::Network;
using lazyrep::rg::GraphCost;
using lazyrep::rg::ReplicationGraph;
using lazyrep::sim::EventId;
using lazyrep::sim::EventQueue;
using lazyrep::sim::Facility;
using lazyrep::sim::SimTime;
using lazyrep::sim::Task;
using lazyrep::sim::TimeWeightedStat;
using lazyrep::sim::WaitStatus;

static_assert(!std::is_trivially_destructible_v<EventQueue::Callback> &&
                  !std::is_trivially_destructible_v<Facility::WorkFn> &&
                  !std::is_trivially_destructible_v<Network::DeliveryFn>,
              "by-value InlineFunction parameters are forwarded as pointers");

#define PERFBENCH_REAL(sym) __asm__("__real_" sym)
#define PERFBENCH_WRAP(sym) __asm__("__wrap_" sym)

// sim ---------------------------------------------------------------------------

#define SYM "_ZN7lazyrep3sim10EventQueue3PopEv"
EventQueue::Fired RealPop(EventQueue* q) PERFBENCH_REAL(SYM);
EventQueue::Fired WrapPop(EventQueue* q) PERFBENCH_WRAP(SYM);
EventQueue::Fired WrapPop(EventQueue* q) {
  Span span(&g_stats.queue);
  --g_pending;
  return RealPop(q);
}
#undef SYM

#define SYM \
  "_ZN7lazyrep3sim10EventQueue14ScheduleResumeEdNSt7__n486116coroutine_handleIvEE"
EventId RealResume(EventQueue* q, SimTime t, std::coroutine_handle<> h)
    PERFBENCH_REAL(SYM);
EventId WrapResume(EventQueue* q, SimTime t, std::coroutine_handle<> h)
    PERFBENCH_WRAP(SYM);
EventId WrapResume(EventQueue* q, SimTime t, std::coroutine_handle<> h) {
  Span span(&g_stats.queue);
  NoteScheduled();
  return RealResume(q, t, h);
}
#undef SYM

#define SYM \
  "_ZN7lazyrep3sim10EventQueue16ScheduleCallbackEdNS0_14InlineFunctionIFvvELm48EEE"
EventId RealCallback(EventQueue* q, SimTime t, EventQueue::Callback* fn)
    PERFBENCH_REAL(SYM);
EventId WrapCallback(EventQueue* q, SimTime t, EventQueue::Callback* fn)
    PERFBENCH_WRAP(SYM);
EventId WrapCallback(EventQueue* q, SimTime t, EventQueue::Callback* fn) {
  Span span(&g_stats.queue);
  NoteScheduled();
  return RealCallback(q, t, fn);
}
#undef SYM

#define SYM "_ZN7lazyrep3sim10EventQueue6CancelENS0_7EventIdE"
bool RealCancel(EventQueue* q, EventId id) PERFBENCH_REAL(SYM);
bool WrapCancel(EventQueue* q, EventId id) PERFBENCH_WRAP(SYM);
bool WrapCancel(EventQueue* q, EventId id) {
  Span span(&g_stats.queue);
  const bool removed = RealCancel(q, id);
  if (removed) {
    --g_pending;
    ++g_stats.cancels;
  }
  return removed;
}
#undef SYM

#define SYM "_ZN7lazyrep3sim16TimeWeightedStat3SetEdd"
void RealSet(TimeWeightedStat* s, SimTime now, double value)
    PERFBENCH_REAL(SYM);
void WrapSet(TimeWeightedStat* s, SimTime now, double value)
    PERFBENCH_WRAP(SYM);
void WrapSet(TimeWeightedStat* s, SimTime now, double value) {
  Span span(&g_stats.stat_set);
  RealSet(s, now, value);
}
#undef SYM

// hw ----------------------------------------------------------------------------

#define SYM "_ZN7lazyrep3sim8Facility3UseEd"
Task<WaitStatus> RealUse(Facility* f, SimTime service) PERFBENCH_REAL(SYM);
Task<WaitStatus> WrapUse(Facility* f, SimTime service) PERFBENCH_WRAP(SYM);
Task<WaitStatus> WrapUse(Facility* f, SimTime service) {
  ++g_stats.facility_uses;
  return RealUse(f, service);
}
#undef SYM

#define SYM "_ZN7lazyrep3sim8Facility10UseBoundedEdm"
Task<WaitStatus> RealUseBounded(Facility* f, SimTime service, size_t bound)
    PERFBENCH_REAL(SYM);
Task<WaitStatus> WrapUseBounded(Facility* f, SimTime service, size_t bound)
    PERFBENCH_WRAP(SYM);
Task<WaitStatus> WrapUseBounded(Facility* f, SimTime service, size_t bound) {
  ++g_stats.facility_uses;
  return RealUseBounded(f, service, bound);
}
#undef SYM

#define SYM "_ZN7lazyrep3sim8Facility5ServeENS0_14InlineFunctionIFdvELm48EEEmd"
Task<WaitStatus> RealServe(Facility* f, Facility::WorkFn* work, size_t bound,
                           double rate) PERFBENCH_REAL(SYM);
Task<WaitStatus> WrapServe(Facility* f, Facility::WorkFn* work, size_t bound,
                           double rate) PERFBENCH_WRAP(SYM);
Task<WaitStatus> WrapServe(Facility* f, Facility::WorkFn* work, size_t bound,
                           double rate) {
  ++g_stats.facility_uses;
  return RealServe(f, work, bound, rate);
}
#undef SYM

// net ---------------------------------------------------------------------------

#define SYM "_ZN7lazyrep3net7Network8TransferEttm"
Task<bool> RealTransfer(Network* n, SiteId src, SiteId dst, size_t bytes)
    PERFBENCH_REAL(SYM);
Task<bool> WrapTransfer(Network* n, SiteId src, SiteId dst, size_t bytes)
    PERFBENCH_WRAP(SYM);
Task<bool> WrapTransfer(Network* n, SiteId src, SiteId dst, size_t bytes) {
  ++g_stats.transfers;
  return RealTransfer(n, src, dst, bytes);
}
#undef SYM

#define SYM                                                               \
  "_ZN7lazyrep3net7Network9MulticastEtRKSt6vectorItSaItEEmNS_3sim14Inline" \
  "FunctionIFvtELm48EEE"
Task<void> RealMulticast(Network* n, SiteId src,
                         const std::vector<SiteId>& dsts, size_t bytes,
                         Network::DeliveryFn* fn) PERFBENCH_REAL(SYM);
Task<void> WrapMulticast(Network* n, SiteId src,
                         const std::vector<SiteId>& dsts, size_t bytes,
                         Network::DeliveryFn* fn) PERFBENCH_WRAP(SYM);
Task<void> WrapMulticast(Network* n, SiteId src,
                         const std::vector<SiteId>& dsts, size_t bytes,
                         Network::DeliveryFn* fn) {
  ++g_stats.multicasts;
  return RealMulticast(n, src, dsts, bytes, fn);
}
#undef SYM

// db ----------------------------------------------------------------------------

#define SYM "_ZN7lazyrep2db11LockManager7AcquireEmjNS0_8LockModeEd"
Task<WaitStatus> RealAcquire(LockManager* m, TxnId txn, ItemId item,
                             LockMode mode, SimTime timeout)
    PERFBENCH_REAL(SYM);
Task<WaitStatus> WrapAcquire(LockManager* m, TxnId txn, ItemId item,
                             LockMode mode, SimTime timeout)
    PERFBENCH_WRAP(SYM);
Task<WaitStatus> WrapAcquire(LockManager* m, TxnId txn, ItemId item,
                             LockMode mode, SimTime timeout) {
  ++g_stats.lock_acquires;
  return RealAcquire(m, txn, item, mode, timeout);
}
#undef SYM

#define SYM "_ZN7lazyrep2db11LockManager7ReleaseEmj"
void RealRelease(LockManager* m, TxnId txn, ItemId item) PERFBENCH_REAL(SYM);
void WrapRelease(LockManager* m, TxnId txn, ItemId item) PERFBENCH_WRAP(SYM);
void WrapRelease(LockManager* m, TxnId txn, ItemId item) {
  Span span(&g_stats.lock_release);
  RealRelease(m, txn, item);
}
#undef SYM

#define SYM "_ZN7lazyrep2db11LockManager10ReleaseAllEm"
void RealReleaseAll(LockManager* m, TxnId txn) PERFBENCH_REAL(SYM);
void WrapReleaseAll(LockManager* m, TxnId txn) PERFBENCH_WRAP(SYM);
void WrapReleaseAll(LockManager* m, TxnId txn) {
  Span span(&g_stats.lock_release);
  RealReleaseAll(m, txn);
}
#undef SYM

#define SYM "_ZN7lazyrep2db9ItemStore10ApplyWriteEjNS0_9TimestampE"
ItemStore::WriteResult RealApply(ItemStore* s, ItemId item, Timestamp ts)
    PERFBENCH_REAL(SYM);
ItemStore::WriteResult WrapApply(ItemStore* s, ItemId item, Timestamp ts)
    PERFBENCH_WRAP(SYM);
ItemStore::WriteResult WrapApply(ItemStore* s, ItemId item, Timestamp ts) {
  Span span(&g_stats.store_apply);
  return RealApply(s, item, ts);
}
#undef SYM

#define SYM "_ZN7lazyrep2db9ItemStore4ReadEjm"
Timestamp RealRead(ItemStore* s, ItemId item, TxnId reader)
    PERFBENCH_REAL(SYM);
Timestamp WrapRead(ItemStore* s, ItemId item, TxnId reader)
    PERFBENCH_WRAP(SYM);
Timestamp WrapRead(ItemStore* s, ItemId item, TxnId reader) {
  Span span(&g_stats.store_read);
  return RealRead(s, item, reader);
}
#undef SYM

// rg ----------------------------------------------------------------------------

#define SYM                                                              \
  "_ZN7lazyrep2rg16ReplicationGraph6RgTestEmSt4spanIKNS_2db9OperationELm" \
  "18446744073709551615EEPNS0_9GraphCostE"
ReplicationGraph::TestOutcome RealRgTest(ReplicationGraph* g, TxnId txn,
                                         std::span<const Operation> ops,
                                         GraphCost* cost) PERFBENCH_REAL(SYM);
ReplicationGraph::TestOutcome WrapRgTest(ReplicationGraph* g, TxnId txn,
                                         std::span<const Operation> ops,
                                         GraphCost* cost) PERFBENCH_WRAP(SYM);
ReplicationGraph::TestOutcome WrapRgTest(ReplicationGraph* g, TxnId txn,
                                         std::span<const Operation> ops,
                                         GraphCost* cost) {
  const uint64_t edges_before = cost->check_edges;
  ReplicationGraph::TestOutcome outcome;
  {
    Span span(&g_stats.rg_test);
    outcome = RealRgTest(g, txn, ops, cost);
  }
  g_stats.check_edges += cost->check_edges - edges_before;
  if (outcome.result == ReplicationGraph::TestResult::kOk) ++g_stats.rg_ok;
  return outcome;
}
#undef SYM

#define SYM "_ZN7lazyrep2rg16ReplicationGraph6RemoveEmPNS0_9GraphCostE"
void RealRemove(ReplicationGraph* g, TxnId txn, GraphCost* cost)
    PERFBENCH_REAL(SYM);
void WrapRemove(ReplicationGraph* g, TxnId txn, GraphCost* cost)
    PERFBENCH_WRAP(SYM);
void WrapRemove(ReplicationGraph* g, TxnId txn, GraphCost* cost) {
  Span span(&g_stats.rg_remove);
  RealRemove(g, txn, cost);
}
#undef SYM

// fault -------------------------------------------------------------------------

#define SYM "_ZN7lazyrep5fault13FaultInjector10OnDeliveryEtt"
int RealOnDelivery(FaultInjector* f, SiteId src, SiteId dst)
    PERFBENCH_REAL(SYM);
int WrapOnDelivery(FaultInjector* f, SiteId src, SiteId dst)
    PERFBENCH_WRAP(SYM);
int WrapOnDelivery(FaultInjector* f, SiteId src, SiteId dst) {
  Span span(&g_stats.delivery);
  return RealOnDelivery(f, src, dst);
}
#undef SYM

}  // namespace perfbench::wrap

// -- counting allocator ------------------------------------------------------------
// Whole-program replacement, as in bench/micro/bench_kernel.cc: every
// operator new form counts one allocation; every delete form frees.

void* operator new(std::size_t n) {
  perfbench::g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t align) {
  perfbench::g_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (n + a - 1) & ~(a - 1))) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t align) {
  return ::operator new(n, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
