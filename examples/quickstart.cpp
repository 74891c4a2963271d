// Quickstart: simulate a small replicated database under the optimistic
// replication-graph protocol and print the headline metrics.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>

#include "core/config.h"
#include "core/flags.h"
#include "core/metrics.h"
#include "core/system.h"

int main(int argc, char** argv) {
  using namespace lazyrep;
  core::Flags().Parse(argc, argv);

  // 1. Describe the system: 10 database sites on a metro ATM network, 20
  //    hot-spot items owned per site, the paper's 90/10 read/update mix.
  core::SystemConfig config;
  config.num_sites = 10;
  config.workload.items_per_site = 20;
  config.network.latency = 0.004;     // seconds, one way
  config.network.bandwidth_bps = 155e6;
  config.tps = 300;                   // global submitted transactions/second
  config.total_txns = 20000;          // simulate 20k transactions
  config.seed = 42;
  config.Normalize();

  std::printf("lazyrep quickstart: %d sites, %d items, %.0f TPS offered\n\n",
              config.num_sites, config.total_items(), config.tps);

  // 2. Pick a protocol and run. One System instance = one experiment.
  core::System system(config, core::ProtocolKind::kOptimistic);
  core::MetricsSnapshot m = system.Run();

  // 3. Read the results.
  std::printf("protocol            : %s\n", system.protocol_name());
  std::printf("completed           : %llu transactions (%.1f per second)\n",
              (unsigned long long)m.completed, m.completed_tps);
  std::printf("aborted             : %llu (rate %.2f%%)\n",
              (unsigned long long)m.aborted, 100 * m.abort_rate);
  std::printf("read-only response  : %.1f ms (95%% CI ±%.2f)\n",
              1e3 * m.read_only_response.Mean(),
              1e3 * m.read_only_response.HalfWidth95());
  std::printf("update response     : %.1f ms\n",
              1e3 * m.update_response.Mean());
  std::printf("replica lag (commit->complete): %.1f ms\n",
              1e3 * m.commit_to_complete.Mean());
  std::printf("graph-site CPU load : %.1f%%\n",
              100 * m.graph_cpu_utilization);
  return 0;
}
