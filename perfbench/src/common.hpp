// Shared pieces of the frame -> fix benchmark: clocks, order statistics,
// the per-run operation ledger, and the metric sink that prints the final
// result line.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double s_since(Clock::time_point a) {
  return std::chrono::duration<double>(Clock::now() - a).count();
}

/// Quantile by linear interpolation between closest ranks (q in [0, 1]).
/// Written here rather than taken from the program so that a change to
/// the program's statistics helpers cannot move the benchmark's figures.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// FNV-1a over a byte range (request identity across the transport).
std::uint64_t fnv1a(const std::uint8_t* data, std::size_t n);

/// Attempted/failed counts for one operation kind.
struct OpCount {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Every operation a run makes inside its measured window, by kind, plus
/// the transport's recovery counters. Set-up work is not counted.
struct Ledger {
  OpCount frames;     ///< camera frames through the client frame path
  OpCount fixes;      ///< localization requests answered with a position
  OpCount downloads;  ///< oracle (+ codebook) downloads, refreshes included
  OpCount publishes;  ///< wardrive batches published by the writer
  std::uint64_t retries = 0;
  std::uint64_t sheds = 0;
  std::uint64_t stale_refreshes = 0;

  std::uint64_t attempted() const {
    return frames.attempted + fixes.attempted + downloads.attempted +
           publishes.attempted;
  }
  std::uint64_t failed() const {
    return frames.failed + fixes.failed + downloads.failed + publishes.failed;
  }
  std::string to_json() const;
};

/// Named metric values with units, printed in insertion-independent
/// (sorted) order.
struct Metrics {
  struct Value {
    double value = 0;
    std::string unit;
  };
  std::map<std::string, Value> values;

  void set(const std::string& name, double value, const std::string& unit) {
    values[name] = {value, unit};
  }
  std::string to_json() const;
};

/// Number formatting with every digit a double carries (%.17g), so that
/// no measured value is rounded into a repeat.
std::string num(double v);
std::string json_escape(const std::string& s);

}  // namespace perfbench
