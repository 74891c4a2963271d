// Prints Table 1 of the paper: the simulation model parameters for each of
// the four reported studies (OC-3, OC-1, OC-1*, vsN).

#include <cstdio>

#include "core/config.h"
#include "core/flags.h"

using namespace lazyrep;

int main(int argc, char** argv) {
  core::Flags().Parse(argc, argv);
  struct Entry {
    const char* name;
    core::SystemConfig config;
    const char* tps_range;
  };
  Entry entries[] = {
      {"OC-3", core::SystemConfig::Oc3(), "~200-2600 (varied)"},
      {"OC-1", core::SystemConfig::Oc1(), "~200-2400 (varied)"},
      {"OC-1*", core::SystemConfig::Oc1Star(), "~100-2400 (varied)"},
      {"vsN", core::SystemConfig::VsN(20), "locTPS=15, sites ~2-140"},
  };
  std::printf(
      "Table 1: Simulation model parameters for the reported studies\n");
  for (const Entry& e : entries) {
    std::printf("\n=== %s ===  (global TPS: %s)\n%s", e.name, e.tps_range,
                core::FormatConfigTable(e.config).c_str());
  }
  return 0;
}
