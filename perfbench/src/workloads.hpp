// The three workloads. Each builds its venues from the seed, runs its
// measured window, checks the program's answers, and returns the ledger
// and the metrics of the run (end-to-end untraced; per-layer traced).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;  ///< traced runs write their trace files here
  unsigned cores = 1;   ///< usable CPUs (affinity mask): the thread budget
};

struct RunOutcome {
  std::vector<std::string> errors;  ///< failed correctness checks
  Metrics checked;                  ///< the quantities the checks judged
  Ledger ledger;
  Metrics metrics;
  /// End-to-end figures that only some workloads have (README.md): printed
  /// beside the result line, not in it.
  Metrics workload_metrics;
};

RunOutcome run_tour(const RunArgs& args);
RunOutcome run_crowd(const RunArgs& args);
RunOutcome run_lost(const RunArgs& args);

}  // namespace perfbench
