#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <tuple>

#include "common.hpp"

namespace perfbench {

std::size_t expected_query_bytes(std::size_t place_len, std::size_t features,
                                 bool compact) {
  // magic 4 + version 2 + frame_id 4 + capture_time 8 + width 2 + height 2
  // + fov_h 4 + place (u32 length + bytes) + oracle_epoch 4 = 34 + |place|.
  const std::size_t head = 34 + place_len;
  if (compact) {
    // codebook_epoch 4 + count 4, 20 B per feature, trace_id 8 + flags 1.
    return head + 8 + 20 * features + 9;
  }
  // count 4, 144 B per feature (x, y, scale, orientation f32 + 128 B).
  return head + 4 + 144 * features;
}

std::string check_query_bytes(std::size_t actual, std::size_t place_len,
                              std::size_t features, bool compact) {
  const std::size_t want = expected_query_bytes(place_len, features, compact);
  if (actual == want) return {};
  return "query of " + std::to_string(features) + " " +
         (compact ? "compact" : "raw") + " features is " +
         std::to_string(actual) + " B on the wire, expected " +
         std::to_string(want) + " B";
}

std::string check_fix_error(const std::vector<double>& errors_m,
                            const std::vector<double>& centre_errors_m,
                            double bound_m, double centre_share) {
  if (errors_m.empty()) return "no fixes to check against the true pose";
  if (centre_errors_m.size() != errors_m.size()) {
    return "one room-centre error per fix";
  }
  const double m = median(errors_m);
  if (!(m <= bound_m)) {
    return "median fix error " + num(m) + " m exceeds the " + num(bound_m) +
           " m bound";
  }
  const double centre = median(centre_errors_m);
  if (!(m < centre_share * centre)) {
    return "median fix error " + num(m) + " m is not below " +
           num(centre_share) + " x the " + num(centre) +
           " m a constant room-centre answer scores";
  }
  return {};
}

namespace {

using FeatureKey =
    std::tuple<float, float, float, float, std::array<std::uint8_t, 128>>;

FeatureKey key_of(const vp::Feature& f) {
  std::array<std::uint8_t, 128> d{};
  std::memcpy(d.data(), f.descriptor.data(), d.size());
  return {f.keypoint.x, f.keypoint.y, f.keypoint.scale, f.keypoint.orientation,
          d};
}

}  // namespace

std::string check_selection(const std::vector<vp::Feature>& all,
                            const std::vector<std::uint32_t>& counts,
                            const std::vector<vp::Feature>& selected,
                            std::size_t k) {
  if (counts.size() != all.size()) return "one oracle count per keypoint";
  if (selected.size() != std::min(k, all.size())) {
    return "selected " + std::to_string(selected.size()) + " of " +
           std::to_string(all.size()) + " keypoints, expected " +
           std::to_string(std::min(k, all.size()));
  }
  // Multiset match of the selection against the extracted keypoints.
  std::map<FeatureKey, std::vector<std::size_t>> where;
  for (std::size_t i = 0; i < all.size(); ++i) where[key_of(all[i])].push_back(i);
  std::vector<bool> chosen(all.size(), false);
  for (const auto& f : selected) {
    auto it = where.find(key_of(f));
    if (it == where.end() || it->second.empty()) {
      return "selected a keypoint the frame does not have";
    }
    chosen[it->second.back()] = true;
    it->second.pop_back();
  }
  std::uint32_t worst_selected = 0;
  std::uint32_t best_dropped = std::numeric_limits<std::uint32_t>::max();
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (chosen[i]) {
      worst_selected = std::max(worst_selected, counts[i]);
    } else {
      best_dropped = std::min(best_dropped, counts[i]);
    }
  }
  if (worst_selected <= best_dropped) return {};
  return "a selected keypoint has oracle count " +
         std::to_string(worst_selected) + " above a dropped keypoint's " +
         std::to_string(best_dropped);
}

std::uint32_t brute_force_nn(const std::uint8_t* query, const std::uint8_t* db,
                             std::size_t n, std::uint32_t* dist2_out) {
  std::uint32_t best_id = std::numeric_limits<std::uint32_t>::max();
  std::uint32_t best = std::numeric_limits<std::uint32_t>::max();
  for (std::size_t id = 0; id < n; ++id) {
    const std::uint8_t* d = db + id * 128;
    std::uint32_t sum = 0;
    for (std::size_t j = 0; j < 128; ++j) {
      const int diff = static_cast<int>(query[j]) - static_cast<int>(d[j]);
      sum += static_cast<std::uint32_t>(diff * diff);
    }
    if (sum < best) {  // strict: ties keep the lower id
      best = sum;
      best_id = static_cast<std::uint32_t>(id);
    }
  }
  if (dist2_out != nullptr) *dist2_out = best;
  return best_id;
}

double recall_at_1(const std::vector<std::uint32_t>& index_top1,
                   const std::vector<std::uint32_t>& brute_top1) {
  if (index_top1.empty() || index_top1.size() != brute_top1.size()) return 0.0;
  std::size_t hit = 0;
  for (std::size_t i = 0; i < index_top1.size(); ++i) {
    hit += index_top1[i] == brute_top1[i] ? 1 : 0;
  }
  return static_cast<double>(hit) / static_cast<double>(index_top1.size());
}

std::string check_recall(double recall, std::size_t samples, double guard) {
  if (samples == 0) return "no query feature had a brute-force match to rank";
  if (recall >= guard) return {};
  return "index recall@1 " + num(recall) + " over " + std::to_string(samples) +
         " features is below the " + num(guard) + " guard";
}

std::string check_place_share(std::size_t right, std::size_t total,
                              double share) {
  if (total == 0) return "no fan-out fixes to check";
  const double got = static_cast<double>(right) / static_cast<double>(total);
  if (got >= share) return {};
  return "only " + std::to_string(right) + " of " + std::to_string(total) +
         " fan-out fixes named the venue the frame was taken in (need " +
         num(share) + ")";
}

std::string check_same_reply(const vp::LocationResponse& got,
                             const vp::LocationResponse& ref) {
  const bool same =
      got.frame_id == ref.frame_id && got.found == ref.found &&
      got.position.x == ref.position.x && got.position.y == ref.position.y &&
      got.position.z == ref.position.z && got.yaw == ref.yaw &&
      got.pitch == ref.pitch && got.roll == ref.roll &&
      got.residual == ref.residual &&
      got.matched_keypoints == ref.matched_keypoints &&
      got.place == ref.place && got.place_label == ref.place_label;
  if (same) return {};
  return "reply to frame " + std::to_string(got.frame_id) + " (" +
         num(got.position.x) + ", " + num(got.position.y) + ", " +
         num(got.position.z) + ") differs from the reply served alone (" +
         num(ref.position.x) + ", " + num(ref.position.y) + ", " +
         num(ref.position.z) + ")";
}

std::string check_publish(std::size_t keypoints_before,
                          std::size_t keypoints_after, std::size_t batch,
                          std::uint32_t epoch_before,
                          std::uint32_t epoch_after) {
  if (keypoints_after != keypoints_before + batch) {
    return "publish of " + std::to_string(batch) + " keypoints moved the count " +
           std::to_string(keypoints_before) + " -> " +
           std::to_string(keypoints_after);
  }
  if (epoch_after <= epoch_before) {
    return "publish left the epoch at " + std::to_string(epoch_after) +
           " (was " + std::to_string(epoch_before) + ")";
  }
  return {};
}

}  // namespace perfbench
