// Pieces the workloads share: the end-to-end record of a measured window,
// and the traced run's output files.
#pragma once

#include <string>
#include <vector>

#include "checks.hpp"
#include "common.hpp"
#include "replay.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Everything the end-to-end metrics are computed from. Each of them means
/// the same on every workload.
struct EndToEnd {
  std::vector<double> setup_s;  ///< one per venue set-up
  std::vector<double> fix_ms;
  std::vector<double> fix_error_m;
  double uplink_bytes = 0;
  double downlink_bytes = 0;
  double phone_oracle_bytes = 0;
  double server_map_bytes = 0;

  Metrics metrics() const;
};

/// `fix_ms_p90` into `workload` when the window made enough fixes for a
/// p90 to rest on (kMinFixesForP90).
inline constexpr std::size_t kMinFixesForP90 = 100;
void set_fix_p90(Metrics& workload, const std::vector<double>& fix_ms);

/// Bounds every workload checks against (README.md, "Checks").
inline const CheckBounds kBounds{};

/// Write the traced run's Chrome trace and per-layer table into
/// `args.out_dir`; the paths are printed on stdout.
void write_trace_files(const RunArgs& args, const Tracer& tracer);

void add_error(RunOutcome& out, const std::string& error);

}  // namespace perfbench
