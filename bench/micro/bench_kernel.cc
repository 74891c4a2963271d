// Self-timing micro harness with a counting allocator: the one harness for
// the layers below the protocols.
//
// It owns its own measurement loop so it can report, per scenario:
//   * the work done, in the scenario's unit. The kernel scenarios (event
//     queue, coroutines, wake-ups, facility, network) count events fired;
//     the db and replication-graph scenarios count lock acquires, store
//     operations or graph steps;
//   * heap allocations and coroutine frames built per unit during the
//     measured (steady-state) rounds;
//   * heap nodes the event queue opened per event fired: a heap push that
//     joins the run of the previous one opens none (DESIGN.md §4.1.1, runs);
//     and the heap entries, the opened nodes sifted into the 4-ary heap: a
//     node that sorts before every queued one waits in the top slot instead
//     (DESIGN.md §4.1.1, top slot);
//   * in the rows counted in events, the event queue's slot high-water:
//     heap events and callbacks take a slot, a zero-delay wake-up does not;
//   * throughput (units per wall second) pooled over the measured rounds and
//     of the fastest round, events fired and wall-seconds per simulated
//     second.
// Every scenario runs one warm-up round first — the warm-up pays for event
// queue growth, coroutine frame-pool population, multicast node arenas and
// hash-table buckets — then the measured rounds follow. The `system` row
// runs one small OC-3 point through core::System per round.
//
// Modes:
//   bench_kernel            human-readable summary
//   bench_kernel --report   key=value lines (piped into tools/bench_to_json)
//   bench_kernel --check    exit non-zero if a kernel scenario, the lock
//                           manager or a store row allocates in its measured
//                           rounds (budget: zero), if the facility or the
//                           uncontended lock rows build a frame beyond their
//                           own processes, if the facility row sifts a
//                           node into the event heap, if the system row
//                           exceeds its allocation, frame, heap-node or
//                           heap-entry budget per transaction, if a graph
//                           scenario exceeds its allocation budget per step,
//                           if the wakeup row takes more event slots than
//                           its standing timers, or if any scenario did no
//                           work
//   bench_kernel --rounds=N measured rounds per scenario (1-1000, default 5)
//
// An unknown argument or a malformed --rounds exits 2 with the usage line.
//
// The allocation counter is a whole-program operator-new override, so this
// file must not be linked into binaries that care about allocator identity.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <numeric>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/flags.h"
#include "core/system.h"
#include "db/item_store.h"
#include "db/lock_manager.h"
#include "net/network.h"
#include "net/topology.h"
#include "rg/replication_graph.h"
#include "sim/condition.h"
#include "sim/facility.h"
#include "sim/frame_pool.h"
#include "sim/process.h"
#include "sim/random.h"
#include "sim/simulation.h"

namespace {

// -- counting allocator ------------------------------------------------------

uint64_t g_allocs = 0;

}  // namespace

void* operator new(std::size_t n) {
  ++g_allocs;
  if (void* p = std::malloc(n ? n : 1)) return p;
  std::abort();
}

void* operator new[](std::size_t n) { return ::operator new(n); }

void* operator new(std::size_t n, std::align_val_t align) {
  ++g_allocs;
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (n + static_cast<std::size_t>(align) - 1) &
                                       ~(static_cast<std::size_t>(align) - 1))) {
    return p;
  }
  std::abort();
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

namespace lazyrep::sim {
namespace {

using Clock = std::chrono::steady_clock;

struct ScenarioResult {
  const char* name;
  /// Unit of work: "event" for the kernel scenarios; the db and graph
  /// scenarios, which fire few or no events, count their own.
  const char* unit;
  uint64_t work = 0;    ///< units of work across the measured rounds
  uint64_t events = 0;  ///< events fired across the measured rounds
  uint64_t allocs = 0;  ///< heap allocations across the measured rounds
  uint64_t frames = 0;  ///< coroutine frames built across the measured rounds
  uint64_t heap_nodes = 0;  ///< event-queue heap nodes opened, same rounds
  uint64_t heap_entries = 0;  ///< of those, the nodes sifted into the heap
  uint64_t txns = 0;  ///< transactions submitted (the system row only)
  /// Event-queue slots after the rounds (EventQueue::slot_count): the most
  /// heap events and callbacks pending at once. The system row reports its
  /// largest round.
  uint64_t slots = 0;
  double wall_s = 0;    ///< wall time of the measured rounds
  /// Units per wall second of the fastest measured round: on a shared host
  /// the pooled rate swings with whatever else runs, and the fastest round
  /// is the one least disturbed, so it orders two builds.
  double best_rate = 0;
  double sim_s = 0;     ///< simulated seconds advanced by the measured rounds
  /// Frames --check allows across the measured rounds: a scenario's own
  /// processes. kUngated for the rows without a frame budget.
  uint64_t frames_allowed = kUngated;
  static constexpr uint64_t kUngated = UINT64_MAX;
  /// Slots --check allows; kUngated for the rows without a slot budget.
  uint64_t slots_allowed = kUngated;
  /// Heap entries --check allows; kUngated for the rows without a budget.
  uint64_t heap_entries_allowed = kUngated;
  /// Allocations per unit --check allows in a graph row, which still
  /// allocates per operation; negative for the other rows.
  double allocs_per_unit_allowed = -1;
};

/// Runs `round` once as warm-up, then `rounds` more under measurement.
/// `round` returns the units of work it did. `sim` supplies the events and
/// simulated time; it is null for the scenarios without a simulation.
template <typename RoundFn>
ScenarioResult Measure(ScenarioResult r, int rounds, const Simulation* sim,
                       RoundFn round) {
  round();  // warm-up: grows the queue, pools frames, fills arenas
  uint64_t events0 = sim != nullptr ? sim->events_fired() : 0;
  double sim0 = sim != nullptr ? sim->Now() : 0;
  uint64_t nodes0 =
      sim != nullptr ? sim->event_queue().heap_nodes_opened() : 0;
  uint64_t entries0 = sim != nullptr ? sim->event_queue().heap_entries() : 0;
  uint64_t allocs0 = g_allocs;
  uint64_t frames0 = FramePoolThreadStats().frames();
  Clock::time_point t0 = Clock::now();
  for (int i = 0; i < rounds; ++i) {
    const Clock::time_point start = Clock::now();
    const uint64_t work = round();
    const double round_s =
        std::chrono::duration<double>(Clock::now() - start).count();
    r.work += work;
    if (round_s > 0) r.best_rate = std::max(r.best_rate, work / round_s);
  }
  r.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  r.allocs = g_allocs - allocs0;
  r.frames = FramePoolThreadStats().frames() - frames0;
  if (sim != nullptr) {
    r.events = sim->events_fired() - events0;
    r.sim_s = sim->Now() - sim0;
    r.heap_nodes = sim->event_queue().heap_nodes_opened() - nodes0;
    r.heap_entries = sim->event_queue().heap_entries() - entries0;
    r.slots = sim->event_queue().slot_count();
  }
  return r;
}

/// Measure for a kernel scenario, whose unit is the event.
template <typename RoundFn>
ScenarioResult MeasureEvents(const char* name, int rounds,
                             const Simulation* sim, RoundFn round) {
  return Measure({name, "event"}, rounds, sim, [&] {
    const uint64_t before = sim->events_fired();
    round();
    return sim->events_fired() - before;
  });
}

// -- scenarios ---------------------------------------------------------------

/// Pure event-queue throughput: schedule a batch at random times, drain.
ScenarioResult ScheduleFire(int rounds) {
  constexpr int kBatch = 100000;
  Simulation sim;
  RandomStream rng(1);
  return MeasureEvents("schedule_fire", rounds, &sim, [&] {
    uint64_t fired = 0;
    for (int i = 0; i < kBatch; ++i) {
      sim.ScheduleCallbackAt(sim.Now() + rng.Uniform(0, 1),
                             [&fired] { ++fired; });
    }
    sim.Run();
  });
}

/// Retry-timer pattern: schedule, cancel half, reschedule the canceled ones
/// later (the shape reliable-messaging retries and lock timeouts produce).
ScenarioResult CancelHeavy(int rounds) {
  constexpr int kBatch = 100000;
  Simulation sim;
  RandomStream rng(2);
  std::vector<EventId> ids;
  ids.reserve(kBatch);
  return MeasureEvents("cancel_heavy", rounds, &sim, [&] {
    ids.clear();
    for (int i = 0; i < kBatch; ++i) {
      ids.push_back(sim.ScheduleCallbackAt(sim.Now() + rng.Uniform(0, 1),
                                           [] {}));
    }
    for (int i = 0; i < kBatch; i += 2) {
      sim.Cancel(ids[i]);
      sim.ScheduleCallbackAt(sim.Now() + rng.Uniform(1, 2), [] {});
    }
    sim.Run();
  });
}

Process Hopper(Simulation* sim, int hops, int* done) {
  for (int i = 0; i < hops; ++i) co_await sim->Delay(0.001);
  ++*done;
}

/// Coroutine frame allocation + context switching through the frame pool.
ScenarioResult CoroutineHops(int rounds) {
  constexpr int kProcs = 1000;
  constexpr int kHops = 100;
  Simulation sim;
  return MeasureEvents("coroutine_hops", rounds, &sim, [&] {
    int done = 0;
    for (int i = 0; i < kProcs; ++i) sim.Spawn(Hopper(&sim, kHops, &done));
    sim.Run();
    if (done != kProcs) std::abort();
  });
}

Process Waker(OneShot* shot) {
  shot->Fire(WaitStatus::kSignaled);
  co_return;
}

Process Sleeper(OneShot* shot, int wakes) {
  for (int i = 0; i < wakes; ++i) {
    co_await shot->Wait();
    shot->Reset();
  }
}

Process Ticker(Simulation* sim, RandomStream* rng, OneShot* shot, int ticks) {
  for (int i = 0; i < ticks; ++i) {
    co_await sim->Delay(rng->Uniform(0.0005, 0.0015));
    // Wake the partner at this instant: directly, or through a spawned
    // process that fires the shot (a process start, then a wake-up).
    if (i % 2 == 0) {
      shot->Fire(WaitStatus::kSignaled);
    } else {
      sim->Spawn(Waker(shot));
    }
  }
}

/// Zero-delay wake-ups beside standing timers, the shape of a protocol run:
/// 1,000 timers re-armed as they fire keep the heap near OC-3's mean of about
/// 850 pending events, and each firing wakes a sleeping process at the same
/// instant (OneShot::Fire, or Simulation::Spawn of a process that fires it).
/// Three events in five are zero-delay.
ScenarioResult Wakeup(int rounds) {
  constexpr int kPairs = 1000;
  constexpr int kTicks = 100;
  Simulation sim;
  RandomStream rng(3);
  std::vector<std::unique_ptr<OneShot>> shots;
  for (int i = 0; i < kPairs; ++i) {
    shots.push_back(std::make_unique<OneShot>(&sim));
  }
  ScenarioResult r = MeasureEvents("wakeup", rounds, &sim, [&] {
    for (int i = 0; i < kPairs; ++i) {
      sim.Spawn(Sleeper(shots[i].get(), kTicks));
      sim.Spawn(Ticker(&sim, &rng, shots[i].get(), kTicks));
    }
    sim.Run();
  });
  // Only the timers are heap events: the spawns and wake-ups at the
  // current instant take no event slot.
  r.slots_allowed = kPairs;
  return r;
}

Process MulticastDriver(net::Network* net, const std::vector<db::SiteId>* dsts,
                        int sends, uint64_t* delivered) {
  for (int i = 0; i < sends; ++i) {
    net::Network::DeliveryFn on_delivered = [delivered](db::SiteId) {
      ++*delivered;
    };
    co_await net->Multicast(0, *dsts, 1000, std::move(on_delivered));
  }
}

/// Control-message multicast: the eager/lazy propagation hot path (pooled
/// per-message nodes, one delivery leg per recipient).
ScenarioResult Multicast(int rounds) {
  constexpr int kSites = 8;
  constexpr int kSends = 2000;
  Simulation sim;
  net::Network net(&sim, kSites, net::NetworkParams{});
  std::vector<db::SiteId> dsts;
  for (int s = 1; s < kSites; ++s) dsts.push_back(static_cast<db::SiteId>(s));
  uint64_t delivered = 0;
  return MeasureEvents("multicast", rounds, &sim, [&] {
    sim.Spawn(MulticastDriver(&net, &dsts, kSends, &delivered));
    sim.Run();
  });
}

Process GeoDriver(net::Network* net, const std::vector<db::SiteId>* dsts,
                  int sends, uint64_t* delivered) {
  for (int i = 0; i < sends; ++i) {
    // One cross-backbone unicast plus one all-sites multicast per iteration:
    // the routed hot path (route tables, per-subtree fan-out, climb legs).
    co_await net->Transfer(0, dsts->back(), 1000);
    net::Network::DeliveryFn on_delivered = [delivered](db::SiteId) {
      ++*delivered;
    };
    co_await net->Multicast(0, *dsts, 1000, std::move(on_delivered));
  }
}

/// Routed multicast over a geo tree (3 DCs x 2 metros): the uplink is
/// traversed once per receiving subtree, and the interior climb/descend legs
/// must stay as allocation-free as the flat star's.
ScenarioResult GeoMulticast(int rounds) {
  constexpr int kSites = 12;
  constexpr int kSends = 1000;
  Simulation sim;
  net::TopologySpec spec;
  spec.kind = net::TopologySpec::Kind::kGeo;
  spec.datacenters = 3;
  spec.metros_per_dc = 2;
  net::NetworkParams params;
  net::Network net(&sim, net::BuildTopology(spec, kSites, params), params);
  std::vector<db::SiteId> dsts;
  for (int s = 1; s < kSites; ++s) dsts.push_back(static_cast<db::SiteId>(s));
  uint64_t delivered = 0;
  return MeasureEvents("geo_multicast", rounds, &sim, [&] {
    sim.Spawn(GeoDriver(&net, &dsts, kSends, &delivered));
    sim.Run();
  });
}

Process FacilityUser(Facility* fac, int uses) {
  for (int i = 0; i < uses; ++i) co_await fac->Use(0.0001);
}

/// FCFS facility under contention, the shape of a site CPU or disk: 100
/// processes queue for 1,000 services each on one server.
constexpr int kFacilityProcs = 100;

ScenarioResult FacilityContention(int rounds) {
  constexpr int kProcs = kFacilityProcs;
  constexpr int kUses = 1000;
  Simulation sim;
  Facility fac(&sim, "cpu");
  ScenarioResult r = MeasureEvents("facility", rounds, &sim, [&] {
    for (int i = 0; i < kProcs; ++i) sim.Spawn(FacilityUser(&fac, kUses));
    sim.Run();
  });
  // A facility use parks in its user's frame: only the users are frames.
  r.frames_allowed = uint64_t{kProcs} * rounds;
  // One server: the one pending service end is always the earliest node,
  // so it waits in the top slot and never enters the heap.
  r.heap_entries_allowed = 0;
  return r;
}

// Lock requests never time out in these scenarios, but each wait still arms
// and cancels its timer, as the protocols' waits do.
constexpr SimTime kLockTimeout = 100;

Process LockTxn(Simulation* sim, db::LockManager* lm, db::TxnId txn,
                const db::ItemId* items, int n, db::LockMode mode,
                SimTime hold) {
  for (int i = 0; i < n; ++i) {
    WaitStatus granted = co_await lm->Acquire(txn, items[i], mode,
                                              kLockTimeout);
    if (granted != WaitStatus::kSignaled) std::abort();
  }
  if (hold > 0) co_await sim->Delay(hold);
  lm->ReleaseAll(txn);
}

/// Lock acquire/release: each round starts `txns` transactions at once. Each
/// locks a run of `per_txn` adjacent items, drawn once from the first `hot`
/// items, in item order (so nothing deadlocks), holds the locks for `hold`
/// and releases them all.
ScenarioResult LockScenario(const char* name, int rounds, int txns,
                            int per_txn, int hot, db::LockMode mode,
                            SimTime hold) {
  Simulation sim;
  db::LockManager lm(&sim);
  RandomStream rng(4);
  std::vector<db::ItemId> items(txns * per_txn);
  for (int t = 0; t < txns; ++t) {
    db::ItemId* run = items.data() + t * per_txn;
    std::iota(run, run + per_txn,
              static_cast<db::ItemId>(rng.UniformInt(0, hot - per_txn)));
  }
  db::TxnId next = 1;
  ScenarioResult r = Measure({name, "acquire"}, rounds, &sim, [&] {
    uint64_t grants0 = lm.grants();
    for (int t = 0; t < txns; ++t) {
      sim.Spawn(LockTxn(&sim, &lm, next++, items.data() + t * per_txn,
                        per_txn, mode, hold));
    }
    sim.Run();
    return lm.grants() - grants0;
  });
  // Holding locks across a delay is what makes requests queue; without a
  // hold, every request must be granted at once, and an immediate grant
  // builds no frame: only the transactions are frames.
  if ((lm.waits() > 0) != (hold > 0)) std::abort();
  if (hold == 0) r.frames_allowed = static_cast<uint64_t>(txns) * rounds;
  return r;
}

/// One small OC-3 point through core::System per round: the paper's
/// 100-site star, pessimistic at 1,400 TPS, 1,500 transactions (500 of them
/// warm-up). Counts System::Run only, not construction: the whole stack's
/// allocations, frames, heap nodes and heap entries, which --check holds to
/// committed budgets per transaction. The first run is the warm-up, as in
/// Measure.
ScenarioResult SystemPoint(int rounds) {
  ScenarioResult r{"system", "event"};
  for (int i = 0; i <= rounds; ++i) {
    core::SystemConfig config = core::SystemConfig::Oc3();
    config.tps = 1400;
    config.total_txns = 1500;
    core::System system(config, core::ProtocolKind::kPessimistic);
    const uint64_t allocs0 = g_allocs;
    const uint64_t frames0 = FramePoolThreadStats().frames();
    const uint64_t nodes0 = system.sim().event_queue().heap_nodes_opened();
    const uint64_t entries0 = system.sim().event_queue().heap_entries();
    const Clock::time_point t0 = Clock::now();
    system.Run();
    if (i == 0) continue;
    const double round_s =
        std::chrono::duration<double>(Clock::now() - t0).count();
    r.wall_s += round_s;
    r.best_rate =
        std::max(r.best_rate, system.sim().events_fired() / round_s);
    r.allocs += g_allocs - allocs0;
    r.frames += FramePoolThreadStats().frames() - frames0;
    r.heap_nodes += system.sim().event_queue().heap_nodes_opened() - nodes0;
    r.heap_entries += system.sim().event_queue().heap_entries() - entries0;
    r.txns += config.total_txns;
    r.slots = std::max<uint64_t>(r.slots,
                                 system.sim().event_queue().slot_count());
    r.events += system.sim().events_fired();
    r.sim_s += system.sim().Now();
  }
  r.work = r.events;
  return r;
}

/// Thomas-Write-Rule store over 100,000 items: per item, an applied write
/// (which hands back and drops the replaced version's reader list), a stale
/// write the rule ignores and a read that registers its reader; the reader
/// is removed from every item at the end. Four store operations per item.
/// Every item has a live reader at once, the reader table's worst case.
/// Each round takes three transaction ids; the writer-time table is sized
/// for all of them up front, so its growth is not counted as steady state.
ScenarioResult StoreTwr(int rounds) {
  constexpr db::ItemId kItems = 100000;
  db::ReplicaVersions versions(db::Placement{1, kItems, 1});
  versions.ReserveWriters(3 * (static_cast<db::TxnId>(rounds) + 1));
  db::ItemStore store(&versions, 0);
  std::vector<db::ItemId> all(kItems);
  std::iota(all.begin(), all.end(), db::ItemId{0});
  db::TxnId next = 1;
  SimTime now = 0;
  return Measure({"store_twr", "op"}, rounds, nullptr, [&] {
    now += 1;
    db::TxnId writer = next++;
    db::TxnId stale_writer = next++;
    db::TxnId reader = next++;
    for (db::ItemId i = 0; i < kItems; ++i) {
      bool applied = store.ApplyWrite(i, db::Timestamp{now, writer}).applied;
      bool stale =
          store.ApplyWrite(i, db::Timestamp{now - 0.5, stale_writer}).applied;
      if (!applied || stale) std::abort();
      store.Read(i, reader);
    }
    store.RemoveReader(reader, all);
    return uint64_t{4} * kItems;
  });
}

/// One writer reaching every replica of an item: 1,024 stores share one
/// version table over 20,480 items (fleet_1024's database). A round stamps
/// 256 writers of distinct items, applies them site by site at all 1,024
/// sites, so all 256 are in flight at once until the last site settles
/// them, then reads each item at its primary site, the origin, and removes
/// the reader again. 262,400 store operations a round. Every store's reader
/// table is grown once before the warm-up, and the writer-time table is
/// sized for every round, so neither growth counts as steady state.
ScenarioResult StoreFanout(int rounds) {
  constexpr uint32_t kSites = 1024;
  constexpr uint32_t kItemsPerSite = 20;
  constexpr uint32_t kItems = kSites * kItemsPerSite;
  constexpr uint32_t kWriters = 256;
  constexpr db::TxnId kReader = 1;
  db::ReplicaVersions versions(db::Placement{kSites, kItemsPerSite, kSites});
  versions.ReserveWriters(kWriters * (static_cast<db::TxnId>(rounds) + 1) +
                          kReader);
  std::vector<db::ItemStore> stores;
  stores.reserve(kSites);
  std::vector<db::ItemId> one(1, 0);
  for (uint32_t s = 0; s < kSites; ++s) {
    stores.emplace_back(&versions, static_cast<db::SiteId>(s));
    stores[s].Read(0, kReader);
    stores[s].RemoveReader(kReader, one);
  }
  std::vector<db::Timestamp> stamps(kWriters);
  db::TxnId next = kReader + 1;
  db::ItemId first = 0;
  SimTime now = 0;
  return Measure({"store_fanout", "op"}, rounds, nullptr, [&] {
    now += 1;
    for (db::Timestamp& ts : stamps) ts = db::Timestamp{now, next++};
    for (uint32_t s = 0; s < kSites; ++s) {
      for (uint32_t w = 0; w < kWriters; ++w) {
        const db::ItemId item = (first + w) % kItems;
        if (!stores[s].ApplyWrite(item, stamps[w]).applied) std::abort();
      }
    }
    for (uint32_t w = 0; w < kWriters; ++w) {
      const db::ItemId item = (first + w) % kItems;
      db::ItemStore& origin = stores[item / kItemsPerSite];
      if (origin.Read(item, kReader) != stamps[w]) std::abort();
      one[0] = item;
      origin.RemoveReader(kReader, one);
    }
    if (versions.writers_in_flight() != 0) std::abort();
    first = (first + kWriters) % kItems;
    return uint64_t{kSites + 1} * kWriters;
  });
}

db::Operation ReadOf(db::ItemId item) { return {db::OpType::kRead, item}; }
db::Operation WriteOf(db::ItemId item) { return {db::OpType::kWrite, item}; }

/// Replication-graph churn at 100 sites and 64 live transactions of 10
/// operations: an operation reads a random item, except that in the 10% of
/// transactions that are global updates 30% of them write one of the
/// origin's items. Each step removes the oldest transaction and registers
/// and RGtests a fresh one.
ScenarioResult RgChurn(int rounds) {
  constexpr int kSites = 100;
  constexpr int kItemsPerSite = 20;
  constexpr int kPopulation = 64;
  constexpr int kOps = 10;
  constexpr int kSteps = 3000;
  RandomStream rng(7);
  rg::ReplicationGraph graph(kSites);
  rg::GraphCost cost;
  std::vector<db::TxnId> live(kPopulation);  // a ring, oldest at `oldest`
  std::vector<db::Operation> ops;
  ops.reserve(kOps);
  db::TxnId next = 1;
  auto admit = [&](int slot) {
    db::TxnId txn = next++;
    auto origin = static_cast<db::SiteId>(rng.UniformInt(0, kSites - 1));
    bool update = rng.Chance(0.1);
    graph.AddTxn(txn, origin, update);
    ops.clear();
    for (int i = 0; i < kOps; ++i) {
      if (update && rng.Chance(0.3)) {
        ops.push_back(WriteOf(static_cast<db::ItemId>(
            origin * kItemsPerSite + rng.UniformInt(0, kItemsPerSite - 1))));
      } else {
        ops.push_back(ReadOf(static_cast<db::ItemId>(
            rng.UniformInt(0, kSites * kItemsPerSite - 1))));
      }
    }
    graph.RgTest(txn, ops, &cost);
    live[slot] = txn;
  };
  for (int slot = 0; slot < kPopulation; ++slot) admit(slot);
  int oldest = 0;
  ScenarioResult r = Measure({"rg_churn", "step"}, rounds, nullptr, [&] {
    for (int s = 0; s < kSteps; ++s) {
      graph.Remove(live[oldest], &cost);
      admit(oldest);
      oldest = (oldest + 1) % kPopulation;
    }
    return uint64_t{kSteps};
  });
  r.allocs_per_unit_allowed = 27;  // measures 25.6; about 5% of headroom
  return r;
}

/// Cycle check through a merged virtual site: 32 global writers from site 0
/// share one virtual site at site 5 through a reader of all their items,
/// and a reader at site 6 already shares writer 1's virtual site there.
/// Each step is that reader's RGtest to read writer 2's item: the union at
/// site 6 would close a cycle through site 5's group, so the test finds it
/// and rolls back, leaving the graph as it was.
ScenarioResult RgCycleCheck(int rounds) {
  constexpr int kWriters = 32;
  constexpr int kSteps = 300;
  constexpr db::ItemId kFirstItem = 100;
  constexpr db::TxnId kBigReader = 1000;
  constexpr db::TxnId kProbe = 1001;
  rg::ReplicationGraph graph(10);
  rg::GraphCost cost;
  std::vector<db::Operation> reads;
  for (int w = 0; w < kWriters; ++w) {
    auto item = static_cast<db::ItemId>(kFirstItem + w);
    const db::Operation write[] = {WriteOf(item)};
    graph.AddTxn(1 + w, 0, true);
    graph.RgTest(1 + w, write, &cost);
    reads.push_back(ReadOf(item));
  }
  graph.AddTxn(kBigReader, 5, false);
  graph.RgTest(kBigReader, reads, &cost);
  const db::Operation first[] = {ReadOf(kFirstItem)};
  graph.AddTxn(kProbe, 6, false);
  graph.RgTest(kProbe, first, &cost);
  const db::Operation probe[] = {ReadOf(kFirstItem + 1)};
  ScenarioResult r =
      Measure({"rg_cycle_check", "step"}, rounds, nullptr, [&] {
        for (int s = 0; s < kSteps; ++s) {
          rg::ReplicationGraph::TestOutcome outcome =
              graph.RgTest(kProbe, probe, &cost);
          if (outcome.result != rg::ReplicationGraph::TestResult::kCycle) {
            std::abort();
          }
        }
        return uint64_t{kSteps};
      });
  // The search keeps its visited set and stack across checks, so a check
  // that finds its cycle allocates nothing.
  r.allocs_per_unit_allowed = 0;
  return r;
}

/// Large-group split: 64 local readers at site 3 have read item 5. Each
/// step admits a global writer of item 5 from site 0, whose RGtest merges
/// all 64 into its virtual site at site 3, then removes it, which splits
/// the group back into singletons.
ScenarioResult RgSplit(int rounds) {
  constexpr int kReaders = 64;
  constexpr int kSteps = 200;
  constexpr db::ItemId kItem = 5;
  constexpr db::SiteId kReaderSite = 3;
  rg::ReplicationGraph graph(10);
  rg::GraphCost cost;
  const db::Operation read[] = {ReadOf(kItem)};
  for (int i = 0; i < kReaders; ++i) {
    graph.AddTxn(1 + i, kReaderSite, false);
    graph.RgTest(1 + i, read, &cost);
  }
  const db::Operation write[] = {WriteOf(kItem)};
  db::TxnId writer = 1 + kReaders;
  ScenarioResult r = Measure({"rg_split", "step"}, rounds, nullptr, [&] {
    for (int s = 0; s < kSteps; ++s) {
      graph.AddTxn(writer, 0, true);
      graph.RgTest(writer, write, &cost);
      size_t merged = graph.MergedGroupsAt(kReaderSite);
      graph.Remove(writer++, &cost);
      if (merged != 1 || graph.MergedGroupsAt(kReaderSite) != 0) std::abort();
    }
    return uint64_t{kSteps};
  });
  r.allocs_per_unit_allowed = 296;  // measures 282; about 5% of headroom
  return r;
}

// -- reporting ---------------------------------------------------------------

double PerUnit(double x, const ScenarioResult& r) {
  return r.work ? x / r.work : 0.0;
}

double PerEvent(double x, const ScenarioResult& r) {
  return r.events ? x / r.events : 0.0;
}

bool CountsEvents(const ScenarioResult& r) {
  return std::strcmp(r.unit, "event") == 0;
}

bool IsLockScenario(const ScenarioResult& r) {
  return std::strncmp(r.name, "lock_", 5) == 0;
}

bool IsSystemScenario(const ScenarioResult& r) {
  return std::strcmp(r.name, "system") == 0;
}

bool IsStoreScenario(const ScenarioResult& r) {
  return std::strncmp(r.name, "store_", 6) == 0;
}

/// Scenarios --check holds to zero steady-state allocations: the kernel
/// scenarios, the lock manager and the two store rows. The graph still
/// allocates per operation where it admits or removes transactions, so its
/// rows have per-step budgets (`rg_cycle_check`'s is 0), and the system row
/// has budgets of its own (below).
bool Gated(const ScenarioResult& r) {
  return (CountsEvents(r) && !IsSystemScenario(r)) || IsLockScenario(r) ||
         IsStoreScenario(r);
}

/// The system row's committed budgets per submitted transaction (1,500 a
/// round, about 466.8 events each). Allocations, frames and heap nodes were
/// budgeted per event, so a change that removed events without moving
/// anything else tripped them; these keep the per-event ceilings (0.107
/// allocations, 0.35 frames and 0.32 heap nodes per event) exactly. It
/// measures 47.47 allocations (a fresh System grows its tables as it runs),
/// 153.6 frames, 142.4 heap nodes opened and 117.9 heap entries, about 5%
/// under its budget: 24.6 of the nodes wait in the top slot and never enter
/// the heap. Per event it made 0.1213 allocations while each graph cycle
/// check built its own visited set and stack, 0.1236 while an update built
/// its replica targets twice, 0.1975 while an RGtest kept two undo logs, a
/// transaction kept copies of its read and write sets and each operation's
/// grant slot was a heap object of its own, and 0.2438 while the generator
/// built a hash set per transaction and an RGtest copied its operation and
/// conflict lists; 0.9852 frames before facility uses, disk pages and
/// immediate lock grants stopped building frames, and 0.3507 while an RGtest
/// built a frame of its own; and 0.5072 heap nodes while every heap event
/// opened its own. The counts are deterministic.
constexpr double kSystemAllocsPerTxn = 49.9;
constexpr double kSystemFramesPerTxn = 163.3;
constexpr double kSystemHeapNodesPerTxn = 149.3;
constexpr double kSystemHeapEntriesPerTxn = 123.7;

double PerTxn(double x, const ScenarioResult& r) {
  return r.txns ? x / r.txns : 0.0;
}

void PrintHuman(const ScenarioResult& r) {
  std::printf(
      "%-16s %9llu %-8s allocs=%-8llu (%.4f/%s)  frames=%-8llu (%.4f/%s)  "
      "wall=%.3fs  %.2fM/s (best round %.2fM/s)  wall/sim-s=%.4f",
      r.name, static_cast<unsigned long long>(r.work), r.unit,
      static_cast<unsigned long long>(r.allocs), PerUnit(r.allocs, r), r.unit,
      static_cast<unsigned long long>(r.frames), PerUnit(r.frames, r), r.unit,
      r.wall_s, r.work / r.wall_s / 1e6, r.best_rate / 1e6,
      r.sim_s > 0 ? r.wall_s / r.sim_s : 0.0);
  if (CountsEvents(r)) {
    std::printf("  slots=%llu  heap nodes=%.4f entries=%.4f per event",
                static_cast<unsigned long long>(r.slots),
                PerEvent(r.heap_nodes, r), PerEvent(r.heap_entries, r));
  } else {
    std::printf("  events=%llu", static_cast<unsigned long long>(r.events));
  }
  if (r.txns > 0) {
    std::printf(
        "  per txn (%llu): allocs=%.2f frames=%.2f heap nodes=%.2f "
        "entries=%.2f",
        static_cast<unsigned long long>(r.txns), PerTxn(r.allocs, r),
        PerTxn(r.frames, r), PerTxn(r.heap_nodes, r),
        PerTxn(r.heap_entries, r));
  }
  std::printf("\n");
}

/// Keys name the scenario's unit: kernel.<name>.<unit>s, allocs_per_<unit>
/// and <unit>s_per_s. A scenario counted in events also reports its event
/// slots; one not counted in events reports the events it fired. Heap nodes
/// and heap entries are counted per event fired in every row, and the
/// system row also reports its transactions and its budgeted counts per
/// transaction.
void PrintReport(const ScenarioResult& r) {
  const char* n = r.name;
  const char* u = r.unit;
  std::printf("kernel.%s.%ss=%llu\n", n, u,
              static_cast<unsigned long long>(r.work));
  if (CountsEvents(r)) {
    std::printf("kernel.%s.slots=%llu\n", n,
                static_cast<unsigned long long>(r.slots));
  } else {
    std::printf("kernel.%s.events=%llu\n", n,
                static_cast<unsigned long long>(r.events));
  }
  std::printf("kernel.%s.allocs=%llu\n", n,
              static_cast<unsigned long long>(r.allocs));
  std::printf("kernel.%s.allocs_per_%s=%.6f\n", n, u, PerUnit(r.allocs, r));
  std::printf("kernel.%s.frames=%llu\n", n,
              static_cast<unsigned long long>(r.frames));
  std::printf("kernel.%s.frames_per_%s=%.6f\n", n, u, PerUnit(r.frames, r));
  std::printf("kernel.%s.heap_nodes=%llu\n", n,
              static_cast<unsigned long long>(r.heap_nodes));
  std::printf("kernel.%s.heap_nodes_per_event=%.6f\n", n,
              PerEvent(r.heap_nodes, r));
  std::printf("kernel.%s.heap_entries=%llu\n", n,
              static_cast<unsigned long long>(r.heap_entries));
  std::printf("kernel.%s.heap_entries_per_event=%.6f\n", n,
              PerEvent(r.heap_entries, r));
  if (r.txns > 0) {
    std::printf("kernel.%s.txns=%llu\n", n,
                static_cast<unsigned long long>(r.txns));
    std::printf("kernel.%s.allocs_per_txn=%.4f\n", n, PerTxn(r.allocs, r));
    std::printf("kernel.%s.frames_per_txn=%.4f\n", n, PerTxn(r.frames, r));
    std::printf("kernel.%s.heap_nodes_per_txn=%.4f\n", n,
                PerTxn(r.heap_nodes, r));
    std::printf("kernel.%s.heap_entries_per_txn=%.4f\n", n,
                PerTxn(r.heap_entries, r));
  }
  std::printf("kernel.%s.wall_s=%.6f\n", n, r.wall_s);
  std::printf("kernel.%s.%ss_per_s=%.0f\n", n, u, r.work / r.wall_s);
  std::printf("kernel.%s.best_%ss_per_s=%.0f\n", n, u, r.best_rate);
  std::printf("kernel.%s.wall_per_sim_s=%.6f\n", n,
              r.sim_s > 0 ? r.wall_s / r.sim_s : 0.0);
}

int Run(int argc, char** argv) {
  bool check = false;
  bool report = false;
  int rounds = 5;
  core::Flags()
      .Switch("--check", &check,
              "exit 1 on a steady-state allocation or no work")
      .Switch("--report", &report,
              "key=value lines for bench_to_json")
      .Number("--rounds=N", &rounds, 1, 1000,
              "measured rounds per scenario (1-1000, default 5)")
      .Parse(argc, argv);

  std::vector<ScenarioResult> results;
  results.push_back(ScheduleFire(rounds));
  results.push_back(CancelHeavy(rounds));
  results.push_back(CoroutineHops(rounds));
  results.push_back(Multicast(rounds));
  results.push_back(GeoMulticast(rounds));
  results.push_back(Wakeup(rounds));
  results.push_back(FacilityContention(rounds));
  // Without conflicts, each transaction takes 10 shared locks and finishes
  // in one step. Under contention, exclusive locks on 4 of 1,000 hot items
  // are held for 1 ms, so requests queue and are granted on release.
  results.push_back(LockScenario("lock_uncontended", rounds, 10000, 10, 10,
                                 db::LockMode::kShared, 0));
  results.push_back(LockScenario("lock_contended", rounds, 5000, 4, 1000,
                                 db::LockMode::kExclusive, 0.001));
  results.push_back(StoreTwr(rounds));
  results.push_back(StoreFanout(rounds));
  results.push_back(RgChurn(rounds));
  results.push_back(RgCycleCheck(rounds));
  results.push_back(RgSplit(rounds));
  results.push_back(SystemPoint(rounds));

  FramePoolStats pool = FramePoolThreadStats();
  if (report) {
    for (const ScenarioResult& r : results) PrintReport(r);
    std::printf("kernel.frame_pool.fresh_allocs=%llu\n",
                static_cast<unsigned long long>(pool.fresh_allocs));
    std::printf("kernel.frame_pool.pooled_allocs=%llu\n",
                static_cast<unsigned long long>(pool.pooled_allocs));
    std::printf("kernel.rounds=%d\n", rounds);
  } else {
    for (const ScenarioResult& r : results) PrintHuman(r);
    std::printf("frame pool: %llu fresh, %llu pooled\n",
                static_cast<unsigned long long>(pool.fresh_allocs),
                static_cast<unsigned long long>(pool.pooled_allocs));
  }

  if (check) {
    // The committed budget: zero heap allocations per unit at steady state
    // in the kernel scenarios, the lock manager and the store. The warm-up
    // round absorbs all capacity growth (the lock tables' spare nodes
    // included); any measured-round allocation there is a regression on the
    // allocation-free hot path. The graph still allocates per operation, so
    // its scenarios are held to committed allocations per step instead (the
    // baseline for making it allocation-free). A facility use and an
    // immediate lock grant build no coroutine frame, so those rows may build
    // only their own processes' frames. The facility row's service ends
    // never enter the event heap: each waits in the top slot. The system
    // row has committed budgets per transaction: allocations, frames, heap
    // nodes opened and heap entries. The wakeup row may take one event slot
    // per standing timer: a zero-delay wake-up takes none. A scenario that
    // did no work measured nothing, so it fails too.
    int failures = 0;
    int gated = 0;
    for (const ScenarioResult& r : results) {
      if (r.work == 0) {
        std::fprintf(stderr, "CHECK FAILED: %s did no work\n", r.name);
        ++failures;
        continue;
      }
      if (r.frames > r.frames_allowed) {
        std::fprintf(stderr,
                     "CHECK FAILED: %s built %llu coroutine frames (budget: "
                     "%llu, its own processes)\n",
                     r.name, static_cast<unsigned long long>(r.frames),
                     static_cast<unsigned long long>(r.frames_allowed));
        ++failures;
      }
      if (r.slots > r.slots_allowed) {
        std::fprintf(stderr,
                     "CHECK FAILED: %s took %llu event slots (budget: %llu, "
                     "its standing timers)\n",
                     r.name, static_cast<unsigned long long>(r.slots),
                     static_cast<unsigned long long>(r.slots_allowed));
        ++failures;
      }
      if (r.heap_entries > r.heap_entries_allowed) {
        std::fprintf(stderr,
                     "CHECK FAILED: %s sifted %llu nodes into the event heap "
                     "(budget: %llu)\n",
                     r.name, static_cast<unsigned long long>(r.heap_entries),
                     static_cast<unsigned long long>(r.heap_entries_allowed));
        ++failures;
      }
      if (IsSystemScenario(r)) {
        if (PerTxn(r.frames, r) > kSystemFramesPerTxn) {
          std::fprintf(stderr,
                       "CHECK FAILED: system built %.2f coroutine frames per "
                       "transaction (budget: %.1f)\n",
                       PerTxn(r.frames, r), kSystemFramesPerTxn);
          ++failures;
        }
        if (PerTxn(r.heap_nodes, r) > kSystemHeapNodesPerTxn) {
          std::fprintf(stderr,
                       "CHECK FAILED: system opened %.2f event-queue heap "
                       "nodes per transaction (budget: %.1f)\n",
                       PerTxn(r.heap_nodes, r), kSystemHeapNodesPerTxn);
          ++failures;
        }
        if (PerTxn(r.heap_entries, r) > kSystemHeapEntriesPerTxn) {
          std::fprintf(stderr,
                       "CHECK FAILED: system sifted %.2f nodes into the event "
                       "heap per transaction (budget: %.1f)\n",
                       PerTxn(r.heap_entries, r), kSystemHeapEntriesPerTxn);
          ++failures;
        }
#ifndef LAZYREP_FRAME_POOL_DISABLED
        // Sanitized builds allocate every frame; the frame budget covers it.
        if (PerTxn(r.allocs, r) > kSystemAllocsPerTxn) {
          std::fprintf(stderr,
                       "CHECK FAILED: system performed %.2f heap allocations "
                       "per transaction (budget: %.1f)\n",
                       PerTxn(r.allocs, r), kSystemAllocsPerTxn);
          ++failures;
        }
#endif
        continue;
      }
      if (r.allocs_per_unit_allowed >= 0) {
        if (PerUnit(r.allocs, r) > r.allocs_per_unit_allowed) {
          std::fprintf(stderr,
                       "CHECK FAILED: %s performed %.4f heap allocations per "
                       "%s (budget: %.4f)\n",
                       r.name, PerUnit(r.allocs, r), r.unit,
                       r.allocs_per_unit_allowed);
          ++failures;
        }
        continue;
      }
      if (!Gated(r)) continue;
#ifdef LAZYREP_FRAME_POOL_DISABLED
      // Sanitized builds bypass the frame pool by design; only the
      // non-coroutine scenarios must stay allocation-free there.
      bool pooled_scenario = IsLockScenario(r) ||
                             (CountsEvents(r) &&
                              std::strcmp(r.name, "schedule_fire") != 0 &&
                              std::strcmp(r.name, "cancel_heavy") != 0);
      if (pooled_scenario) continue;
#endif
      ++gated;
      if (r.allocs != 0) {
        std::fprintf(stderr,
                     "CHECK FAILED: %s performed %llu steady-state heap "
                     "allocations (budget: 0)\n",
                     r.name, static_cast<unsigned long long>(r.allocs));
        ++failures;
      }
    }
    if (failures > 0) return 1;
    std::printf("alloc budget check passed: 0 steady-state allocations in "
                "%d gated scenarios; frame, slot, heap-entry, graph and "
                "system budgets held\n",
                gated);
  }
  return 0;
}

}  // namespace
}  // namespace lazyrep::sim

int main(int argc, char** argv) { return lazyrep::sim::Run(argc, argv); }
