// Stock-exchange scenario (§4.4 of the paper): every site is an exchange
// with its own most-active stocks (its primary items) and local traders.
// Price updates originate at the owning exchange and replicate everywhere;
// traders everywhere read any stock.
//
// The example scales the federation from 4 to 32 exchanges (locTPS fixed)
// and compares the three protocols on throughput, abort rate, and the price
// staleness window (commit -> complete). It then shows the §4.3 extension:
// a read-only gatekeeper that shifts aborts away from price updates —
// "in a stock-trading application, it is important that current prices be
// posted promptly regardless of contention".
//
// Run: ./build/examples/stock_exchange [EXCHANGES...]

#include <cstdio>
#include <limits>
#include <vector>

#include "core/config.h"
#include "core/flags.h"
#include "core/system.h"

using namespace lazyrep;

namespace {

core::SystemConfig ExchangeConfig(int exchanges) {
  core::SystemConfig c;
  c.num_sites = exchanges;
  c.workload.items_per_site = 20;  // each exchange's hot tickers
  c.workload.read_only_fraction = 0.90;  // traders mostly quote
  c.network.latency = 0.02;              // continental feed, 20 ms
  c.network.bandwidth_bps = 155e6;
  c.tps = 25.0 * exchanges;  // each exchange contributes 25 TPS
  c.total_txns = 15000;
  c.seed = 7;
  c.Normalize();
  return c;
}

void RunFederation(int exchanges) {
  std::printf("\n-- %d exchanges, %d tickers, %.0f TPS offered --\n",
              exchanges, exchanges * 20, 25.0 * exchanges);
  std::printf("%-12s %12s %10s %16s %18s\n", "protocol", "trades/sec",
              "aborts", "quote latency", "price staleness");
  for (core::ProtocolKind kind :
       {core::ProtocolKind::kLocking, core::ProtocolKind::kPessimistic,
        core::ProtocolKind::kOptimistic}) {
    core::System system(ExchangeConfig(exchanges), kind);
    core::MetricsSnapshot m = system.Run();
    std::printf("%-12s %12.1f %9.2f%% %13.1f ms %15.1f ms\n",
                core::ProtocolKindName(kind), m.completed_tps,
                100 * m.abort_rate, 1e3 * m.read_only_response.Mean(),
                1e3 * m.commit_to_complete.Mean());
  }
}

void RunGatekeeper(int exchanges) {
  std::printf(
      "\n-- gatekeeper extension (§4.3): protect price updates from "
      "quote storms --\n");
  std::printf("%-22s %14s %14s %14s\n", "configuration", "upd aborts",
              "ro aborts", "upd response");
  for (int gate : {0, 8, 3}) {
    core::SystemConfig c = ExchangeConfig(exchanges);
    c.workload.read_only_fraction = 0.80;  // heavier quoting
    c.tps = 60.0 * exchanges;              // stress the exchanges
    c.read_gatekeeper = gate;
    c.Normalize();
    core::System system(c, core::ProtocolKind::kOptimistic);
    core::MetricsSnapshot m = system.Run();
    char name[64];
    std::snprintf(name, sizeof(name),
                  gate == 0 ? "no gatekeeper" : "gatekeeper = %d/site", gate);
    double upd_rate =
        m.submitted_update ? 100.0 * m.aborted_update / m.submitted_update : 0;
    double ro_rate = m.submitted_read_only
                         ? 100.0 * m.aborted_read_only / m.submitted_read_only
                         : 0;
    std::printf("%-22s %13.2f%% %13.2f%% %11.1f ms\n", name, upd_rate,
                ro_rate, 1e3 * m.update_response.Mean());
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<int> sweep;
  core::Flags()
      .Positional(
          "[EXCHANGES...]", 0, std::numeric_limits<size_t>::max(),
          [&sweep](std::string_view text, std::string* error) {
            return core::ParseNumber(
                "EXCHANGES", text, 1,
                int{std::numeric_limits<db::SiteId>::max()},
                &sweep.emplace_back(), error);
          },
          "federation sizes to run (default 4 12 32)")
      .Parse(argc, argv);
  if (sweep.empty()) sweep = {4, 12, 32};
  std::printf("Federated stock exchanges on lazy replication\n");
  for (int exchanges : sweep) RunFederation(exchanges);
  RunGatekeeper(8);
  return 0;
}
