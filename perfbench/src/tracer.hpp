// The benchmark's own span recorder. Spans are opened by the benchmark
// around its calls into each layer's public functions (never inside the
// program), kept in memory, and written out when the run ends as a
// Chrome-trace JSON (loads in Perfetto / chrome://tracing) plus a table of
// self time per layer. A span's layer is its name up to the first '.'.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  /// Turn recording on or off between passes (spans already open still
  /// close normally).
  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// RAII span; a no-op when the tracer is disabled. Nested spans on the
  /// same thread become children of the innermost open span.
  class Span {
   public:
    Span(Tracer& tracer, const char* name, std::uint64_t trace_id = 0);
    ~Span() { close(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    /// End the span now; returns its duration in ms (0 when disabled).
    double close();

   private:
    Tracer* tracer_;
    std::size_t index_ = 0;
    bool open_ = false;
    double ms_ = 0;
  };

  /// Durations (ms) of every closed span with this exact name.
  std::vector<double> durations_ms(const std::string& name) const;

  /// Chrome-trace event JSON of every closed span.
  std::string chrome_trace_json() const;

  /// Per-layer table: spans, total and self milliseconds, self share.
  std::string layer_table() const;

  std::size_t span_count() const;

 private:
  struct Record {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;
    std::int64_t parent = -1;
    std::uint32_t tid = 0;
    std::uint64_t trace_id = 0;
  };

  std::size_t open_span(const char* name, std::uint64_t trace_id);
  double close_span(std::size_t index);
  std::int64_t now_ns() const;
  /// Self time of every record: duration minus its children's durations.
  std::vector<std::int64_t> self_ns_locked() const;

  std::atomic<bool> enabled_;
  const Clock::time_point origin_;
  mutable std::mutex mu_;  ///< guards records_ and next_tid_
  std::vector<Record> records_;
  std::uint32_t next_tid_ = 1;
};

}  // namespace perfbench
