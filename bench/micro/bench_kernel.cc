// Self-timing kernel harness with a counting allocator.
//
// Unlike the google-benchmark micro suite (micro_sim.cc), this binary owns
// its own measurement loop so it can report, per scenario:
//   * events fired and wall-seconds per simulated second,
//   * heap allocations during the measured (steady-state) rounds.
// Every scenario runs one warm-up round first — the warm-up pays for event
// queue growth, coroutine frame-pool population, and multicast node arenas —
// then the measured rounds are required to stay allocation-free.
//
// Modes:
//   bench_kernel            human-readable summary
//   bench_kernel --report   key=value lines (piped into tools/bench_to_json)
//   bench_kernel --check    exit non-zero if any scenario exceeds its
//                           committed steady-state allocation budget (zero)
//                           or fired no events
//   bench_kernel --rounds=N measured rounds per scenario (1-1000, default 5)
//
// An unknown argument or a malformed --rounds prints the usage line and
// exits 2.
//
// The allocation counter is a whole-program operator-new override, so this
// file must not be linked into binaries that care about allocator identity.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "core/parse_number.h"
#include "core/study.h"
#include "net/network.h"
#include "net/topology.h"
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
  uint64_t events = 0;  ///< events fired across the measured rounds
  uint64_t allocs = 0;  ///< heap allocations across the measured rounds
  double wall_s = 0;    ///< wall time of the measured rounds
  double sim_s = 0;     ///< simulated seconds advanced by the measured rounds
};

/// Runs `round` once as warm-up, then `rounds` more under measurement.
template <typename RoundFn>
ScenarioResult Measure(const char* name, int rounds, Simulation* sim,
                       RoundFn round) {
  round();  // warm-up: grows the queue, pools frames, fills arenas
  ScenarioResult r;
  r.name = name;
  uint64_t events0 = sim->events_fired();
  double sim0 = sim->Now();
  uint64_t allocs0 = g_allocs;
  Clock::time_point t0 = Clock::now();
  for (int i = 0; i < rounds; ++i) round();
  r.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  r.allocs = g_allocs - allocs0;
  r.events = sim->events_fired() - events0;
  r.sim_s = sim->Now() - sim0;
  return r;
}

// -- scenarios ---------------------------------------------------------------

/// Pure event-queue throughput: schedule a batch at random times, drain.
ScenarioResult ScheduleFire(int rounds) {
  constexpr int kBatch = 100000;
  Simulation sim;
  RandomStream rng(1);
  return Measure("schedule_fire", rounds, &sim, [&] {
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
  return Measure("cancel_heavy", rounds, &sim, [&] {
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
  return Measure("coroutine_hops", rounds, &sim, [&] {
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
  return Measure("wakeup", rounds, &sim, [&] {
    for (int i = 0; i < kPairs; ++i) {
      sim.Spawn(Sleeper(shots[i].get(), kTicks));
      sim.Spawn(Ticker(&sim, &rng, shots[i].get(), kTicks));
    }
    sim.Run();
  });
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
  return Measure("multicast", rounds, &sim, [&] {
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
  return Measure("geo_multicast", rounds, &sim, [&] {
    sim.Spawn(GeoDriver(&net, &dsts, kSends, &delivered));
    sim.Run();
  });
}

// -- reporting ---------------------------------------------------------------

void PrintHuman(const ScenarioResult& r) {
  std::printf(
      "%-15s events=%-10llu allocs=%-6llu (%.4f/event)  wall=%.3fs  "
      "%.2fM events/s  wall/sim-s=%.4f\n",
      r.name, static_cast<unsigned long long>(r.events),
      static_cast<unsigned long long>(r.allocs),
      r.events ? static_cast<double>(r.allocs) / r.events : 0.0, r.wall_s,
      r.events / r.wall_s / 1e6, r.sim_s > 0 ? r.wall_s / r.sim_s : 0.0);
}

void PrintReport(const ScenarioResult& r) {
  std::printf("kernel.%s.events=%llu\n", r.name,
              static_cast<unsigned long long>(r.events));
  std::printf("kernel.%s.allocs=%llu\n", r.name,
              static_cast<unsigned long long>(r.allocs));
  std::printf("kernel.%s.allocs_per_event=%.6f\n", r.name,
              r.events ? static_cast<double>(r.allocs) / r.events : 0.0);
  std::printf("kernel.%s.wall_s=%.6f\n", r.name, r.wall_s);
  std::printf("kernel.%s.events_per_s=%.0f\n", r.name, r.events / r.wall_s);
  std::printf("kernel.%s.wall_per_sim_s=%.6f\n", r.name,
              r.sim_s > 0 ? r.wall_s / r.sim_s : 0.0);
}

int Run(int argc, char** argv) {
  bool check = false;
  bool report = false;
  int rounds = 5;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--check") == 0) {
      check = true;
    } else if (std::strcmp(a, "--report") == 0) {
      report = true;
    } else if (std::strncmp(a, "--rounds=", 9) == 0) {
      rounds = core::ParseNumberOrExit(argv[0], "--rounds", a + 9, 1, 1000,
                                       core::kBenchUsageExit);
    } else {
      std::fprintf(stderr,
                   "%s: unknown flag %s\n"
                   "usage: %s [--check] [--report] [--rounds=N]\n",
                   argv[0], a, argv[0]);
      return core::kBenchUsageExit;
    }
  }

  std::vector<ScenarioResult> results;
  results.push_back(ScheduleFire(rounds));
  results.push_back(CancelHeavy(rounds));
  results.push_back(CoroutineHops(rounds));
  results.push_back(Multicast(rounds));
  results.push_back(GeoMulticast(rounds));
  results.push_back(Wakeup(rounds));

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
    // The committed budget: zero heap allocations per event at steady state.
    // The warm-up round absorbs all capacity growth; any measured-round
    // allocation is a regression on the allocation-free hot path. A scenario
    // that fired nothing measured nothing, so it fails too.
    int failures = 0;
    for (const ScenarioResult& r : results) {
      if (r.events == 0) {
        std::fprintf(stderr, "CHECK FAILED: %s fired no events\n", r.name);
        ++failures;
        continue;
      }
#ifdef LAZYREP_FRAME_POOL_DISABLED
      // Sanitized builds bypass the frame pool by design; only the
      // non-coroutine scenarios must stay allocation-free there.
      bool pooled_scenario = std::strcmp(r.name, "schedule_fire") != 0 &&
                             std::strcmp(r.name, "cancel_heavy") != 0;
      if (pooled_scenario) continue;
#endif
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
                "%zu scenarios\n", results.size());
  }
  return 0;
}

}  // namespace
}  // namespace lazyrep::sim

int main(int argc, char** argv) { return lazyrep::sim::Run(argc, argv); }
