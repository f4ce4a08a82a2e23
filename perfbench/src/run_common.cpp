#include "run_common.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>

namespace perfbench {

Metrics EndToEnd::metrics() const {
  Metrics m;
  const double fixes = static_cast<double>(fix_ms.size());
  m.set("setup_s", median(setup_s), "s");
  m.set("fix_ms_p50", quantile(fix_ms, 0.5), "ms");
  m.set("uplink_bytes_per_fix", fixes > 0 ? uplink_bytes / fixes : 0.0, "B");
  m.set("downlink_bytes_per_fix", fixes > 0 ? downlink_bytes / fixes : 0.0,
        "B");
  m.set("fix_error_m_p50", median(fix_error_m), "m");
  m.set("phone_oracle_bytes", phone_oracle_bytes, "B");
  m.set("server_map_bytes", server_map_bytes, "B");
  return m;
}

void set_fix_p90(Metrics& workload, const std::vector<double>& fix_ms) {
  if (fix_ms.size() >= kMinFixesForP90) {
    workload.set("fix_ms_p90", quantile(fix_ms, 0.9), "ms");
  }
}

void write_trace_files(const RunArgs& args, const Tracer& tracer) {
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  const std::string stem = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed);
  {
    std::ofstream f(stem + ".trace.json", std::ios::trunc);
    f << tracer.chrome_trace_json();
  }
  const std::string table = tracer.layer_table();
  {
    std::ofstream f(stem + ".layers.txt", std::ios::trunc);
    f << table;
  }
  std::printf("trace: %s.trace.json (%zu spans; open in Perfetto)\n",
              stem.c_str(), tracer.span_count());
  std::printf("self time per layer (%s.layers.txt):\n%s", stem.c_str(),
              table.c_str());
}

void add_error(RunOutcome& out, const std::string& error) {
  if (error.empty()) return;
  if (out.errors.size() < 20) out.errors.push_back(error);
}

}  // namespace perfbench
