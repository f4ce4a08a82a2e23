#include "geometry/localize.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>

#include "geometry/angles.hpp"
#include "geometry/eigen.hpp"
#include "util/error.hpp"

namespace vp {
namespace {

std::vector<std::pair<std::size_t, std::size_t>> select_pairs(
    std::size_t n, std::size_t max_pairs, Rng& rng) {
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  const std::size_t total = n * (n - 1) / 2;
  pairs.reserve(std::min(total, max_pairs));
  if (total <= max_pairs) {
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i + 1; j < n; ++j) pairs.emplace_back(i, j);
    return pairs;
  }
  // Reservoir-free subsample: accept each pair with probability
  // max_pairs/total, then top up randomly if we undershot.
  const double p = static_cast<double>(max_pairs) / static_cast<double>(total);
  for (std::size_t i = 0; i < n && pairs.size() < max_pairs; ++i) {
    for (std::size_t j = i + 1; j < n && pairs.size() < max_pairs; ++j) {
      if (rng.chance(p)) pairs.emplace_back(i, j);
    }
  }
  while (pairs.size() < max_pairs) {
    const std::size_t i = rng.uniform_u64(n);
    const std::size_t j = rng.uniform_u64(n);
    if (i < j) pairs.emplace_back(i, j);
  }
  return pairs;
}

}  // namespace

// The paper's Fig. 12 objective decomposes pairwise angular error into
// X/Z- and Y/Z-plane components, which assumes a roll-free camera in a
// particular world frame. We use the rotation-invariant equivalent: the
// full 3-D angle between the two pixel rays must match the angle subtended
// at the candidate position by the two matched world points. Same
// observations, no frame assumption; residual units are radians^2 as in
// the paper.
LocalizationObjective::LocalizationObjective(
    std::span<const Observation> obs,
    std::span<const std::pair<std::size_t, std::size_t>> pairs,
    const CameraIntrinsics& cam) {
  std::vector<Vec3> rays;
  rays.reserve(obs.size());
  world_.reserve(obs.size());
  for (const auto& o : obs) {
    rays.push_back(cam.pixel_ray(o.pixel));
    world_.push_back(o.world_point);
  }
  pairs_.reserve(pairs.size());
  for (const auto& [i, j] : pairs) {
    pairs_.push_back(
        {i, j, std::acos(std::clamp(rays[i].dot(rays[j]), -1.0, 1.0))});
  }
}

double LocalizationObjective::operator()(Vec3 a) const {
  // Per-call buffer: the DE pool evaluates candidates concurrently.
  struct Offset {
    Vec3 d;
    double n;
  };
  std::vector<Offset> off(world_.size());
  for (std::size_t k = 0; k < world_.size(); ++k) {
    off[k].d = world_[k] - a;
    off[k].n = off[k].d.norm();
  }
  double cost = 0;
  for (const Pair& p : pairs_) {
    const Offset& di = off[p.i];
    const Offset& dj = off[p.j];
    if (di.n < 1e-9 || dj.n < 1e-9) {
      cost += 10.0;  // candidate sits on a landmark: strongly penalize
      continue;
    }
    const double subtended =
        std::acos(std::clamp(di.d.dot(dj.d) / (di.n * dj.n), -1.0, 1.0));
    const double e = p.observed - subtended;
    cost += e * e;
  }
  return cost;
}

Mat3 recover_orientation(Vec3 position, std::span<const Observation> obs,
                         const CameraIntrinsics& cam) noexcept {
  // Correlate world-frame directions to the matched points with the
  // body-frame pixel rays; Horn's method gives world_from_body.
  Mat3 corr{{{0, 0, 0}, {0, 0, 0}, {0, 0, 0}}};
  for (const auto& o : obs) {
    const Vec3 w = (o.world_point - position).normalized();
    const Vec3 b = cam.pixel_ray(o.pixel);
    corr.m[0][0] += w.x * b.x; corr.m[0][1] += w.x * b.y; corr.m[0][2] += w.x * b.z;
    corr.m[1][0] += w.y * b.x; corr.m[1][1] += w.y * b.y; corr.m[1][2] += w.y * b.z;
    corr.m[2][0] += w.z * b.x; corr.m[2][1] += w.z * b.y; corr.m[2][2] += w.z * b.z;
  }
  return horn_rotation(corr);
}

namespace {

struct SolveOutput {
  Vec3 position;
  double cost = 0;
  std::size_t pairs = 0;
  std::size_t generations = 0;
  bool hit_time_bound = false;
};

SolveOutput solve_position(std::span<const Observation> obs,
                           const CameraIntrinsics& cam,
                           const LocalizeConfig& config, Rng& rng) {
  const auto pairs = select_pairs(obs.size(), config.max_pairs, rng);
  const LocalizationObjective cost(obs, pairs, cam);
  const std::array<double, 3> lo{config.search_lo.x, config.search_lo.y,
                                 config.search_lo.z};
  const std::array<double, 3> hi{config.search_hi.x, config.search_hi.y,
                                 config.search_hi.z};
  const auto objective = [&](std::span<const double> v) {
    return cost({v[0], v[1], v[2]});
  };
  const DeResult de = differential_evolution(objective, lo, hi, config.de, rng);
  return {{de.best[0], de.best[1], de.best[2]}, de.cost, pairs.size(),
          de.generations, de.hit_time_bound};
}

/// Per-observation angular residual at position `a`: |observed - subtended|
/// against every other observation, averaged.
std::vector<double> per_observation_residuals(
    Vec3 a, std::span<const Observation> obs, const CameraIntrinsics& cam) {
  std::vector<Vec3> rays, d;
  std::vector<double> n;
  rays.reserve(obs.size());
  d.reserve(obs.size());
  n.reserve(obs.size());
  for (const auto& o : obs) {
    rays.push_back(cam.pixel_ray(o.pixel));
    d.push_back(o.world_point - a);
    n.push_back(d.back().norm());
  }
  std::vector<double> res(obs.size(), 0.0);
  for (std::size_t i = 0; i < obs.size(); ++i) {
    double sum = 0;
    for (std::size_t j = 0; j < obs.size(); ++j) {
      if (j == i) continue;
      const double observed =
          std::acos(std::clamp(rays[i].dot(rays[j]), -1.0, 1.0));
      if (n[i] < 1e-9 || n[j] < 1e-9) {
        sum += 1.0;
        continue;
      }
      const double subtended =
          std::acos(std::clamp(d[i].dot(d[j]) / (n[i] * n[j]), -1.0, 1.0));
      sum += std::abs(observed - subtended);
    }
    res[i] = sum / static_cast<double>(obs.size() - 1);
  }
  return res;
}

}  // namespace

std::optional<LocalizeResult> localize(std::span<const Observation> obs,
                                       const CameraIntrinsics& cam,
                                       const LocalizeConfig& config, Rng& rng) {
  if (obs.size() < 3) return std::nullopt;

  // Degenerate if all world points are (nearly) collinear in projection.
  Vec3 mean_pt;
  for (const auto& o : obs) mean_pt += o.world_point;
  mean_pt = mean_pt / static_cast<double>(obs.size());
  double spread = 0;
  for (const auto& o : obs) spread += (o.world_point - mean_pt).norm2();
  if (spread < 1e-9) return std::nullopt;

  std::vector<Observation> working(obs.begin(), obs.end());
  SolveOutput solved = solve_position(working, cam, config, rng);
  std::size_t generations = solved.generations;
  bool hit_time_bound = solved.hit_time_bound;

  // Refinement: drop the observations that fit the solution worst
  // (mismatched retrievals that slipped past the cluster filter), re-solve.
  for (std::size_t round = 0; round < config.refine_rounds; ++round) {
    const std::size_t keep = std::max<std::size_t>(
        4, static_cast<std::size_t>(static_cast<double>(working.size()) *
                                    config.refine_keep));
    if (keep >= working.size()) break;
    const auto residuals =
        per_observation_residuals(solved.position, working, cam);
    std::vector<std::size_t> order(working.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return residuals[a] < residuals[b];
    });
    std::vector<Observation> kept;
    kept.reserve(keep);
    for (std::size_t i = 0; i < keep; ++i) kept.push_back(working[order[i]]);
    working = std::move(kept);
    solved = solve_position(working, cam, config, rng);
    generations += solved.generations;
    hit_time_bound = hit_time_bound || solved.hit_time_bound;
  }

  LocalizeResult out;
  out.pose.translation = solved.position;
  out.pose.rotation = recover_orientation(solved.position, working, cam);
  out.residual = solved.cost;
  out.pairs_used = solved.pairs;
  out.generations = generations;
  out.hit_time_bound = hit_time_bound;
  return out;
}

}  // namespace vp
