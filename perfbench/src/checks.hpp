// Correctness checks the benchmark applies to the program's outputs. Each
// returns an empty string when the output passes and a reason otherwise.
// References are made apart from the program (the scene generator's true
// camera pose, the wire layout of docs/WIRE_PROTOCOL.md, a brute-force
// nearest neighbour written here) or are properties the method must have.
// selftest.cpp feeds every check a planted wrong answer.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "features/keypoint.hpp"
#include "geometry/vec.hpp"
#include "net/wire.hpp"

namespace perfbench {

/// Bounds the checks hold the program to; README.md states them.
struct CheckBounds {
  /// Median position error of a run's fixes against the true camera pose.
  double fix_error_median_m = 2.5;
  /// The same median must also stay below this share of the median error
  /// of a constant answer, the room centre for every query, scored against
  /// the same true poses: a solver that does not use the frame fails.
  double centre_error_share = 0.5;
  /// LSH top-1 must agree with the brute-force top-1 on at least this
  /// share of the query features whose true nearest neighbour is a match.
  double recall_at_1_guard = 0.40;
  /// On `lost`, the share of fixes that must name the venue the frame was
  /// rendered in.
  double lost_place_share = 0.60;
};

/// Bytes of an encoded FingerprintQuery (request tag excluded), from the
/// field table of docs/WIRE_PROTOCOL.md: v2 raw = 38 + |place| + 144 per
/// feature; v4 compact = 51 + |place| + 20 per feature.
std::size_t expected_query_bytes(std::size_t place_len, std::size_t features,
                                 bool compact);
std::string check_query_bytes(std::size_t actual, std::size_t place_len,
                              std::size_t features, bool compact);

/// `errors_m[i]` is fix i's distance from its true camera position and
/// `centre_errors_m[i]` the room centre's distance from it.
std::string check_fix_error(const std::vector<double>& errors_m,
                            const std::vector<double>& centre_errors_m,
                            double bound_m, double centre_share);

/// Top-k selection by uniqueness: every selected keypoint is one the frame
/// has, the selection keeps min(k, extracted) keypoints, and every selected
/// keypoint's oracle count is <= every dropped keypoint's count.
/// `counts[i]` is the oracle count of `all[i]`.
std::string check_selection(const std::vector<vp::Feature>& all,
                            const std::vector<std::uint32_t>& counts,
                            const std::vector<vp::Feature>& selected,
                            std::size_t k);

/// Brute-force nearest neighbour over `n` descriptors at 128-byte stride:
/// smallest squared L2 distance, ties to the lowest id.
std::uint32_t brute_force_nn(const std::uint8_t* query,
                             const std::uint8_t* db, std::size_t n,
                             std::uint32_t* dist2_out);

/// Share of positions where the index's top-1 id equals brute force's.
/// An index answer of UINT32_MAX means "no candidate".
double recall_at_1(const std::vector<std::uint32_t>& index_top1,
                   const std::vector<std::uint32_t>& brute_top1);
std::string check_recall(double recall, std::size_t samples, double guard);

std::string check_place_share(std::size_t right, std::size_t total,
                              double share);

/// A reply must equal, field for field, the reply to the same request
/// served alone against the same map epoch.
std::string check_same_reply(const vp::LocationResponse& got,
                             const vp::LocationResponse& reference);

/// A publish raises the stored keypoint count by exactly the batch size and
/// strictly raises the place's epoch.
std::string check_publish(std::size_t keypoints_before,
                          std::size_t keypoints_after, std::size_t batch,
                          std::uint32_t epoch_before,
                          std::uint32_t epoch_after);

}  // namespace perfbench
