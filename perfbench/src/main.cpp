// Frame -> fix benchmark: the command-line entry point.
//
//   perfbench --workload tour|crowd|lost --seed N --seconds S --trace 0|1
//             [--out DIR]
//   perfbench --self-test
//
// Prints an effective-cores probe, the run's operation ledger, any failed
// check, and as its last line one JSON object: {"correct", "attempted",
// "failed", "metrics"}. --trace 0 reports the end-to-end metrics; --trace 1
// reports the per-layer metrics and writes a Chrome trace plus a per-layer
// table to DIR (default .bench_build/perfbench-out). Exits nonzero when a
// check fails or the arguments are wrong.
#include <sched.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "workloads.hpp"

namespace perfbench {
int run_self_test();
}

namespace {

using namespace perfbench;

unsigned usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  const unsigned hc = std::thread::hardware_concurrency();
  return hc > 0 ? hc : 1;
}

/// Fixed integer work; the result is returned so it cannot be elided.
std::uint64_t spin(std::uint64_t iterations) {
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (std::uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

/// Effective cores: the same work on 1 thread and then on `cpus` threads
/// at once; cpus * t1 / tn is how many of them actually ran in parallel.
/// Hosts that report 4 CPUs but deliver 1-2 show it here.
double effective_cores(unsigned cpus) {
  constexpr std::uint64_t kWork = 20'000'000;
  std::atomic<std::uint64_t> sink{0};
  auto t0 = Clock::now();
  sink += spin(kWork);
  const double t1 = ms_between(t0, Clock::now());
  t0 = Clock::now();
  std::vector<std::thread> threads;
  for (unsigned i = 0; i < cpus; ++i) {
    threads.emplace_back([&sink] { sink += spin(kWork); });
  }
  for (auto& t : threads) t.join();
  const double tn = ms_between(t0, Clock::now());
  return tn > 0 ? static_cast<double>(cpus) * t1 / tn : 0.0;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload tour|crowd|lost "
               "--seed N --seconds S --trace 0|1 [--out DIR]\n"
               "       perfbench --self-test\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs args;
  args.out_dir = ".bench_build/perfbench-out";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--self-test") return run_self_test();
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      args.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      args.seed = std::strtoull(v.c_str(), &end, 10);
      if (end == v.c_str() || *end != '\0') return usage("bad --seed");
    } else if (a == "--seconds") {
      args.seconds = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || !(args.seconds > 0) ||
          args.seconds > 600) {
        return usage("bad --seconds");
      }
    } else if (a == "--trace") {
      if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
      args.trace = v == "1";
    } else if (a == "--out") {
      args.out_dir = v;
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (args.workload != "tour" && args.workload != "crowd" &&
      args.workload != "lost") {
    return usage("unknown workload");
  }

  args.cores = usable_cpus();
  const double effective = effective_cores(args.cores);
  std::printf("perfbench: workload=%s seed=%llu seconds=%s trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              num(args.seconds).c_str(), args.trace ? 1 : 0);
  std::printf("{\"probe\": {\"cpus\": %u, \"hardware_concurrency\": %u, "
              "\"effective_cores\": %s}}\n",
              args.cores, std::thread::hardware_concurrency(),
              num(effective).c_str());
  std::fflush(stdout);

  RunOutcome out;
  try {
    if (args.workload == "tour") {
      out = run_tour(args);
    } else if (args.workload == "crowd") {
      out = run_crowd(args);
    } else {
      out = run_lost(args);
    }
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "perfbench: run aborted: %s\n", ex.what());
    return 1;
  }

  std::printf("{\"ledger\": %s}\n", out.ledger.to_json().c_str());
  std::printf("{\"checked\": %s}\n", out.checked.to_json().c_str());
  if (!args.trace) {
    std::printf("{\"workload_metrics\": %s}\n",
                out.workload_metrics.to_json().c_str());
  }
  for (const auto& e : out.errors) std::printf("CHECK FAILED: %s\n", e.c_str());
  const bool correct = out.errors.empty();
  const std::uint64_t attempted = std::max<std::uint64_t>(1, out.ledger.attempted());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(out.ledger.failed()),
              out.metrics.to_json().c_str());
  return correct ? 0 : 1;
}
