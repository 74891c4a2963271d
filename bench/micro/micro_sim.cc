// Micro-benchmarks for the simulation kernel: event queue throughput,
// coroutine process scheduling, facility service.

#include <benchmark/benchmark.h>

#include "net/network.h"
#include "sim/facility.h"
#include "sim/process.h"
#include "sim/random.h"
#include "sim/simulation.h"

namespace lazyrep::sim {
namespace {

void BM_EventQueueScheduleFire(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Simulation sim;
    int fired = 0;
    RandomStream rng(1);
    for (int i = 0; i < batch; ++i) {
      sim.ScheduleCallbackAt(rng.Uniform(0, 1), [&fired] { ++fired; });
    }
    sim.Run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventQueueScheduleFire)->Arg(1000)->Arg(100000);

void BM_EventQueueCancelHalf(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Simulation sim;
    RandomStream rng(1);
    std::vector<EventId> ids;
    ids.reserve(batch);
    for (int i = 0; i < batch; ++i) {
      ids.push_back(sim.ScheduleCallbackAt(rng.Uniform(0, 1), [] {}));
    }
    for (int i = 0; i < batch; i += 2) sim.Cancel(ids[i]);
    sim.Run();
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventQueueCancelHalf)->Arg(100000);

// Retry-timer shape: every canceled event is immediately rescheduled later,
// the pattern reliable-messaging retries and lock timeouts generate. With
// lazy deletion this leaves dead entries stacked in the heap; the indexed
// heap removes them in place.
void BM_EventQueueRetryTimer(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  const int rearms = 4;
  for (auto _ : state) {
    Simulation sim;
    RandomStream rng(1);
    std::vector<EventId> ids;
    ids.reserve(batch);
    for (int i = 0; i < batch; ++i) {
      ids.push_back(sim.ScheduleCallbackAt(rng.Uniform(1, 2), [] {}));
    }
    for (int r = 0; r < rearms; ++r) {
      for (int i = 0; i < batch; ++i) {
        sim.Cancel(ids[i]);
        ids[i] = sim.ScheduleCallbackAt(rng.Uniform(1, 2), [] {});
      }
    }
    sim.Run();
  }
  state.SetItemsProcessed(state.iterations() * batch * (rearms + 1));
}
BENCHMARK(BM_EventQueueRetryTimer)->Arg(10000)->Arg(100000);

Process Delayer(Simulation* sim, int hops, int* done) {
  for (int i = 0; i < hops; ++i) co_await sim->Delay(0.001);
  ++*done;
}

void BM_CoroutineProcessHops(benchmark::State& state) {
  const int procs = 1000;
  const int hops = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Simulation sim;
    int done = 0;
    for (int i = 0; i < procs; ++i) sim.Spawn(Delayer(&sim, hops, &done));
    sim.Run();
    benchmark::DoNotOptimize(done);
  }
  state.SetItemsProcessed(state.iterations() * procs * hops);
}
BENCHMARK(BM_CoroutineProcessHops)->Arg(10)->Arg(100);

Process UseFac(Simulation* sim, Facility* f, int n) {
  for (int i = 0; i < n; ++i) co_await f->Use(0.0001);
  (void)sim;
}

void BM_FacilityContention(benchmark::State& state) {
  const int procs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Simulation sim;
    Facility fac(&sim, "cpu");
    for (int i = 0; i < procs; ++i) sim.Spawn(UseFac(&sim, &fac, 100));
    sim.Run();
    benchmark::DoNotOptimize(fac.completed());
  }
  state.SetItemsProcessed(state.iterations() * procs * 100);
}
BENCHMARK(BM_FacilityContention)->Arg(10)->Arg(100);

Process MulticastLoop(net::Network* net, const std::vector<db::SiteId>* dsts,
                      int sends, uint64_t* delivered) {
  for (int i = 0; i < sends; ++i) {
    net::Network::DeliveryFn on_delivered = [delivered](db::SiteId) {
      ++*delivered;
    };
    co_await net->Multicast(0, *dsts, 1000, std::move(on_delivered));
  }
}

// Multicast-shaped load: pooled per-message nodes, one delivery leg per
// recipient — the propagation hot path of every protocol.
void BM_NetworkMulticast(benchmark::State& state) {
  const int sites = static_cast<int>(state.range(0));
  const int sends = 1000;
  for (auto _ : state) {
    Simulation sim;
    net::Network net(&sim, sites, net::NetworkParams{});
    std::vector<db::SiteId> dsts;
    for (int s = 1; s < sites; ++s) dsts.push_back(static_cast<db::SiteId>(s));
    uint64_t delivered = 0;
    sim.Spawn(MulticastLoop(&net, &dsts, sends, &delivered));
    sim.Run();
    benchmark::DoNotOptimize(delivered);
  }
  state.SetItemsProcessed(state.iterations() * sends * (sites - 1));
}
BENCHMARK(BM_NetworkMulticast)->Arg(4)->Arg(16);

}  // namespace
}  // namespace lazyrep::sim

BENCHMARK_MAIN();
