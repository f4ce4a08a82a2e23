#include "tracer.hpp"

#include <algorithm>
#include <cstdio>
#include <map>

namespace perfbench {

namespace {

/// Per-thread span stack and lane id, valid for one tracer at a time.
struct ThreadState {
  const Tracer* owner = nullptr;
  std::uint32_t tid = 0;
  std::vector<std::size_t> stack;
};
thread_local ThreadState t_state;

std::string layer_of(const std::string& name) {
  const auto dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

}  // namespace

Tracer::Span::Span(Tracer& tracer, const char* name, std::uint64_t trace_id)
    : tracer_(&tracer) {
  if (!tracer.enabled()) return;
  index_ = tracer.open_span(name, trace_id);
  open_ = true;
}

double Tracer::Span::close() {
  if (!open_) return ms_;
  open_ = false;
  ms_ = tracer_->close_span(index_);
  return ms_;
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

std::size_t Tracer::open_span(const char* name, std::uint64_t trace_id) {
  if (t_state.owner != this) t_state = ThreadState{this, 0, {}};
  const std::int64_t start = now_ns();
  std::lock_guard lock(mu_);
  if (t_state.tid == 0) t_state.tid = next_tid_++;
  Record r;
  r.name = name;
  r.start_ns = start;
  r.parent = t_state.stack.empty()
                 ? -1
                 : static_cast<std::int64_t>(t_state.stack.back());
  r.tid = t_state.tid;
  r.trace_id = trace_id != 0 || r.parent < 0
                   ? trace_id
                   : records_[static_cast<std::size_t>(r.parent)].trace_id;
  records_.push_back(std::move(r));
  const std::size_t index = records_.size() - 1;
  t_state.stack.push_back(index);
  return index;
}

double Tracer::close_span(std::size_t index) {
  const std::int64_t end = now_ns();
  if (!t_state.stack.empty() && t_state.stack.back() == index) {
    t_state.stack.pop_back();
  }
  std::lock_guard lock(mu_);
  Record& r = records_[index];
  r.end_ns = end;
  return static_cast<double>(end - r.start_ns) / 1e6;
}

std::vector<double> Tracer::durations_ms(const std::string& name) const {
  std::lock_guard lock(mu_);
  std::vector<double> out;
  for (const Record& r : records_) {
    if (r.end_ns >= 0 && r.name == name) {
      out.push_back(static_cast<double>(r.end_ns - r.start_ns) / 1e6);
    }
  }
  return out;
}

std::size_t Tracer::span_count() const {
  std::lock_guard lock(mu_);
  return records_.size();
}

std::vector<std::int64_t> Tracer::self_ns_locked() const {
  std::vector<std::int64_t> self(records_.size(), 0);
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (r.end_ns < 0) continue;
    self[i] += r.end_ns - r.start_ns;
    if (r.parent >= 0) {
      self[static_cast<std::size_t>(r.parent)] -= r.end_ns - r.start_ns;
    }
  }
  return self;
}

std::string Tracer::chrome_trace_json() const {
  std::lock_guard lock(mu_);
  const auto self = self_ns_locked();
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  std::vector<std::uint32_t> tids;
  for (const Record& r : records_) tids.push_back(r.tid);
  std::sort(tids.begin(), tids.end());
  tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
  bool first = true;
  for (const std::uint32_t tid : tids) {
    out += first ? "" : ",\n";
    first = false;
    out += "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": " +
           std::to_string(tid) + ", \"args\": {\"name\": \"perfbench thread " +
           std::to_string(tid) + "\"}}";
  }
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (r.end_ns < 0) continue;
    char head[160];
    std::snprintf(head, sizeof(head),
                  "\"ph\": \"X\", \"pid\": 1, \"tid\": %u, \"ts\": %.3f, "
                  "\"dur\": %.3f",
                  r.tid, static_cast<double>(r.start_ns) / 1e3,
                  static_cast<double>(r.end_ns - r.start_ns) / 1e3);
    out += first ? "" : ",\n";
    first = false;
    out += "{\"name\": \"" + json_escape(r.name) + "\", \"cat\": \"" +
           json_escape(layer_of(r.name)) + "\", " + head +
           ", \"args\": {\"trace_id\": " + std::to_string(r.trace_id) +
           ", \"self_us\": " + num(static_cast<double>(self[i]) / 1e3) + "}}";
  }
  return out + "\n]}\n";
}

std::string Tracer::layer_table() const {
  std::lock_guard lock(mu_);
  const auto self = self_ns_locked();
  struct Row {
    std::uint64_t spans = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  std::map<std::string, Row> rows;
  double all_self = 0;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (r.end_ns < 0) continue;
    Row& row = rows[layer_of(r.name)];
    ++row.spans;
    row.total_ms += static_cast<double>(r.end_ns - r.start_ns) / 1e6;
    row.self_ms += static_cast<double>(self[i]) / 1e6;
    all_self += static_cast<double>(self[i]) / 1e6;
  }
  std::string out = "layer       spans    total_ms     self_ms  self_share\n";
  for (const auto& [layer, row] : rows) {
    char line[160];
    std::snprintf(line, sizeof(line), "%-10s %6llu %11.3f %11.3f %10.2f%%\n",
                  layer.c_str(), static_cast<unsigned long long>(row.spans),
                  row.total_ms, row.self_ms,
                  all_self > 0 ? 100.0 * row.self_ms / all_self : 0.0);
    out += line;
  }
  return out;
}

}  // namespace perfbench
