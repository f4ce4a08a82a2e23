// Client localization from 2-D keypoint observations and matched 3-D world
// points — the nonlinear optimization of Fig. 12 plus post-hoc orientation
// recovery, giving a full 6-DoF pose like the paper claims.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "geometry/camera.hpp"
#include "geometry/optimize.hpp"

namespace vp {

/// One (observed pixel, matched world point) correspondence surviving the
/// largest-cluster filter.
struct Observation {
  Vec2 pixel;       ///< 2-D coordinate in the query image
  Vec3 world_point; ///< 3-D position retrieved from the server's LSH table
};

struct LocalizeConfig {
  /// Bounding box for the camera-position search, in world meters.
  Vec3 search_lo{-100, -100, -5};
  Vec3 search_hi{100, 100, 10};
  /// Cap on the number of keypoint pairs used in the objective (the full
  /// pairwise sum is O(K^2)); pairs are subsampled deterministically.
  std::size_t max_pairs = 400;
  /// Residual refinement rounds: after a solve, observations with the
  /// worst angular residuals (mismatched retrievals that survived the
  /// cluster filter) are dropped and the solve repeats. 0 disables.
  std::size_t refine_rounds = 1;
  double refine_keep = 0.7;  ///< fraction of observations kept per round
  DeConfig de;
};

struct LocalizeResult {
  Pose pose;                 ///< recovered 6-DoF camera pose
  double residual = 0;       ///< objective value at the solution
  std::size_t pairs_used = 0;
  std::size_t generations = 0;  ///< DE generations, summed over every solve
  bool hit_time_bound = false;  ///< any solve stopped by the wall clock
};

/// The Fig. 12 objective for one solve: summed squared angular error
/// between observed pixel-pair separations and the separations subtended
/// at a candidate position by the matched 3-D points. Everything that does
/// not depend on the candidate (pixel rays, observed pair angles) is
/// computed once at construction; an evaluation computes each
/// observation's offset and distance once, then one dot, one divide and
/// one acos per pair. Evaluations hold no shared scratch, so the DE pool
/// may call operator() concurrently.
class LocalizationObjective {
 public:
  LocalizationObjective(
      std::span<const Observation> obs,
      std::span<const std::pair<std::size_t, std::size_t>> pairs,
      const CameraIntrinsics& cam);

  /// Cost at candidate camera position `a`, in radians^2.
  double operator()(Vec3 a) const;

 private:
  struct Pair {
    std::size_t i, j;
    double observed;  ///< angle between the two pixel rays, radians
  };
  std::vector<Vec3> world_;  ///< matched 3-D points, observation order
  std::vector<Pair> pairs_;
};

/// Solve for the client pose. Needs >= 3 observations; returns nullopt when
/// the geometry is degenerate (fewer observations or collapsed points).
std::optional<LocalizeResult> localize(std::span<const Observation> obs,
                                       const CameraIntrinsics& cam,
                                       const LocalizeConfig& config, Rng& rng);

/// Recover camera orientation given a solved position: aligns body-frame
/// pixel rays with world-frame directions to the matched points (Horn's
/// closed-form absolute orientation on unit vectors).
Mat3 recover_orientation(Vec3 position, std::span<const Observation> obs,
                         const CameraIntrinsics& cam) noexcept;

}  // namespace vp
