#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

std::uint64_t fnv1a(const std::uint8_t* data, std::size_t n) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 1099511628211ULL;
  }
  return h;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

namespace {
std::string op_json(const OpCount& c) {
  return "{\"attempted\": " + std::to_string(c.attempted) +
         ", \"failed\": " + std::to_string(c.failed) + "}";
}
}  // namespace

std::string Ledger::to_json() const {
  return "{\"frames\": " + op_json(frames) + ", \"fixes\": " + op_json(fixes) +
         ", \"oracle_downloads\": " + op_json(downloads) +
         ", \"publishes\": " + op_json(publishes) +
         ", \"retries\": " + std::to_string(retries) +
         ", \"sheds\": " + std::to_string(sheds) +
         ", \"stale_refreshes\": " + std::to_string(stale_refreshes) + "}";
}

std::string Metrics::to_json() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, v] : values) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + json_escape(name) + "\": {\"value\": " + num(v.value) +
           ", \"unit\": \"" + json_escape(v.unit) + "\"}";
  }
  return out + "}";
}

}  // namespace perfbench
