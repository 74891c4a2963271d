// Telecom scenario (paper introduction): "telecommunication applications
// require rapid distribution of updates to all replicas with strong
// guarantees of consistency and availability."
//
// A routing/subscriber database is fully replicated across switching
// centers. The example measures how quickly a committed configuration
// change becomes *complete* (installed and stable everywhere) under each
// protocol, on both a metropolitan (OC-3-like) and a continental
// (OC-1-like) network, and how the guarantee degrades as load rises.
//
// Run: ./build/examples/telecom_propagation

#include <cstdio>

#include "core/config.h"
#include "core/flags.h"
#include "core/system.h"

using namespace lazyrep;

namespace {

core::SystemConfig TelecomConfig(bool metro, double tps) {
  core::SystemConfig c;
  c.num_sites = 24;  // switching centers
  c.workload.items_per_site = 15;
  // Config-heavy mix: more updates than the default hot-spot workload.
  c.workload.read_only_fraction = 0.80;
  c.network.latency = metro ? 0.004 : 0.1;
  c.network.bandwidth_bps = metro ? 155e6 : 55e6;
  c.tps = tps;
  c.total_txns = 12000;
  c.seed = 11;
  c.Normalize();
  return c;
}

void Propagation(bool metro) {
  std::printf("\n== %s backbone (latency %.0f ms) ==\n",
              metro ? "metropolitan" : "continental", metro ? 4.0 : 100.0);
  std::printf("%-8s %-12s %18s %18s %10s\n", "load", "protocol",
              "commit latency", "stable everywhere", "aborts");
  for (double tps : {120.0, 360.0, 720.0}) {
    for (core::ProtocolKind kind :
         {core::ProtocolKind::kLocking, core::ProtocolKind::kPessimistic,
          core::ProtocolKind::kOptimistic}) {
      core::System system(TelecomConfig(metro, tps), kind);
      core::MetricsSnapshot m = system.Run();
      std::printf("%-8.0f %-12s %15.1f ms %15.1f ms %9.2f%%\n", tps,
                  core::ProtocolKindName(kind),
                  1e3 * m.update_response.Mean(),
                  1e3 * (m.update_response.Mean() +
                         m.commit_to_complete.Mean()),
                  100 * m.abort_rate);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  core::Flags().Parse(argc, argv);
  std::printf(
      "Telecom replica propagation: how fast is a config change live "
      "everywhere?\n");
  Propagation(/*metro=*/true);
  Propagation(/*metro=*/false);
  std::printf(
      "\nReading: 'stable everywhere' = update submission to completed state\n"
      "(installed at every center with no uncompleted predecessor). The\n"
      "optimistic protocol pays one graph round trip at commit; the locking\n"
      "protocol's primary-copy locks stretch both columns as load grows.\n");
  return 0;
}
