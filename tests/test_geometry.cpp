#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <numeric>
#include <numbers>

#include "geometry/angles.hpp"
#include "geometry/camera.hpp"
#include "geometry/clustering.hpp"
#include "geometry/eigen.hpp"
#include "geometry/icp.hpp"
#include "geometry/localize.hpp"
#include "geometry/optimize.hpp"
#include "geometry/pose.hpp"
#include "geometry/vec.hpp"
#include "util/thread_pool.hpp"

namespace vp {
namespace {

constexpr double kPi = std::numbers::pi;

TEST(Vec3, BasicOps) {
  const Vec3 a{1, 2, 3}, b{4, 5, 6};
  EXPECT_DOUBLE_EQ((a + b).x, 5);
  EXPECT_DOUBLE_EQ((b - a).z, 3);
  EXPECT_DOUBLE_EQ(a.dot(b), 32);
  const Vec3 c = a.cross(b);
  EXPECT_DOUBLE_EQ(c.x, -3);
  EXPECT_DOUBLE_EQ(c.y, 6);
  EXPECT_DOUBLE_EQ(c.z, -3);
  EXPECT_DOUBLE_EQ((Vec3{3, 4, 0}).norm(), 5.0);
  EXPECT_NEAR((Vec3{10, 0, 0}).normalized().norm(), 1.0, 1e-12);
}

TEST(Mat3, IdentityAndMultiply) {
  const Mat3 i = Mat3::identity();
  const Vec3 v{1, 2, 3};
  const Vec3 r = i * v;
  EXPECT_DOUBLE_EQ(r.x, 1);
  EXPECT_DOUBLE_EQ(r.z, 3);
  const Mat3 ii = i * i;
  EXPECT_DOUBLE_EQ(ii.trace(), 3.0);
}

TEST(Rotation, EulerRoundtrip) {
  for (double yaw : {-2.0, -0.5, 0.0, 1.0, 2.5}) {
    for (double pitch : {-1.2, 0.0, 0.7}) {
      for (double roll : {-0.9, 0.0, 1.4}) {
        const Mat3 r = rotation_zyx(yaw, pitch, roll);
        double y2, p2, r2;
        euler_zyx(r, y2, p2, r2);
        EXPECT_NEAR(y2, yaw, 1e-9);
        EXPECT_NEAR(p2, pitch, 1e-9);
        EXPECT_NEAR(r2, roll, 1e-9);
      }
    }
  }
}

TEST(Rotation, OrthonormalColumns) {
  const Mat3 r = rotation_zyx(0.3, -0.6, 1.1);
  const Mat3 rrt = r * r.transposed();
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      EXPECT_NEAR(rrt.m[i][j], i == j ? 1.0 : 0.0, 1e-12);
    }
  }
}

TEST(Pose, WorldBodyRoundtrip) {
  const Pose p = Pose::from_euler({1, 2, 3}, 0.5, -0.2, 0.1);
  const Vec3 w{4, -1, 2};
  EXPECT_NEAR(p.to_world(p.to_body(w)).distance(w), 0.0, 1e-12);
}

TEST(Pose, ComposeAndInverse) {
  const Pose a = Pose::from_euler({1, 0, 0}, 0.3, 0, 0);
  const Pose b = Pose::from_euler({0, 2, 0}, -0.8, 0.1, 0);
  const Pose ab = a * b;
  const Vec3 v{0.5, 0.5, 0.5};
  EXPECT_NEAR(ab.to_world(v).distance(a.to_world(b.to_world(v))), 0, 1e-12);
  const Pose id = a * a.inverse();
  EXPECT_NEAR(id.translation.norm(), 0, 1e-12);
  EXPECT_NEAR(rotation_angle_between(id.rotation, Mat3::identity()), 0, 1e-9);
}

TEST(Camera, CenterPixelLooksForward) {
  CameraIntrinsics cam{640, 480, 1.2};
  const Vec3 ray = cam.pixel_ray({320, 240});
  EXPECT_NEAR(ray.x, 0, 1e-9);
  EXPECT_NEAR(ray.y, 0, 1e-9);
  EXPECT_NEAR(ray.z, 1, 1e-9);
}

TEST(Camera, ProjectUnprojectRoundtrip) {
  CameraIntrinsics cam{640, 480, 1.1};
  const Vec3 p{0.4, -0.2, 3.0};
  const auto px = cam.project(p);
  ASSERT_TRUE(px.has_value());
  const Vec3 ray = cam.pixel_ray(*px);
  // Ray through the pixel should pass through p (same direction).
  EXPECT_NEAR(ray.cross(p.normalized()).norm(), 0.0, 1e-9);
}

TEST(Camera, BehindCameraRejected) {
  CameraIntrinsics cam{640, 480, 1.1};
  EXPECT_FALSE(cam.project({0, 0, -1}).has_value());
}

TEST(Camera, OutOfFrameRejected) {
  CameraIntrinsics cam{640, 480, 1.1};
  EXPECT_FALSE(cam.project({100, 0, 1}).has_value());
}

TEST(Camera, FovEdgeMapsToImageEdge) {
  CameraIntrinsics cam{640, 480, 1.0};
  // A point at exactly half the horizontal FoV projects to x = width.
  const double half = cam.fov_h / 2;
  const auto px = cam.project({std::tan(half) * 0.999, 0, 1});
  ASSERT_TRUE(px.has_value());
  EXPECT_GT(px->x, 638.0);
}

TEST(Angles, GammaMatchesRayAngle) {
  CameraIntrinsics cam{640, 480, 1.15};
  // Fig. 11 gamma should equal the angle between the pixel ray and the
  // optical axis, projected on the x axis.
  for (double px : {0.0, 160.0, 320.0, 480.0, 639.0}) {
    const double gamma = gamma_angle(px, 320.0, cam.fov_h, 640.0);
    const Vec3 ray = cam.pixel_ray({px, 240.0});
    const double expected = std::atan2(ray.x, ray.z);
    EXPECT_NEAR(gamma, expected, 1e-9) << "px=" << px;
  }
}

TEST(Angles, AxisSeparationCases) {
  // Same side: |g1 - g2|; opposite sides: g1 + |g2|.
  EXPECT_NEAR(axis_separation(0.3, 0.1), 0.2, 1e-12);
  EXPECT_NEAR(axis_separation(0.3, -0.1), 0.4, 1e-12);
}

TEST(Angles, SubtendedAngleRightTriangle) {
  // Observer at origin, points at 45 deg on either side of the z axis.
  const Vec3 a{0, 0, 0};
  const double angle =
      subtended_angle_on_plane(a, {1, 0, 1}, {-1, 0, 1}, 0);
  EXPECT_NEAR(angle, kPi / 2, 1e-9);
}

TEST(Clustering, SeparatesTwoBlobs) {
  Rng rng(1);
  std::vector<Vec3> pts;
  for (int i = 0; i < 30; ++i) {
    pts.push_back({rng.gaussian(0, 0.3), rng.gaussian(0, 0.3), 0});
  }
  for (int i = 0; i < 10; ++i) {
    pts.push_back({20 + rng.gaussian(0, 0.3), rng.gaussian(0, 0.3), 0});
  }
  const auto result = cluster_points(pts, {.radius = 2.0, .min_points = 3});
  ASSERT_EQ(result.clusters.size(), 2u);
  EXPECT_EQ(result.clusters[0].size(), 30u);
  EXPECT_EQ(result.clusters[1].size(), 10u);
}

TEST(Clustering, NoiseFiltered) {
  std::vector<Vec3> pts{{0, 0, 0}, {100, 0, 0}, {0, 100, 0}};
  const auto result = cluster_points(pts, {.radius = 1.0, .min_points = 2});
  EXPECT_TRUE(result.clusters.empty());
  for (auto l : result.labels) EXPECT_EQ(l, SIZE_MAX);
}

TEST(Clustering, LargestClusterAndCentroid) {
  std::vector<Vec3> pts{{0, 0, 0}, {0.5, 0, 0}, {1, 0, 0}, {50, 50, 50}};
  const auto big = largest_cluster(pts, {.radius = 1.0, .min_points = 2});
  EXPECT_EQ(big.size(), 3u);
  const Vec3 c = centroid(pts, big);
  EXPECT_NEAR(c.x, 0.5, 1e-12);
}

TEST(Eigen, DiagonalMatrix) {
  const double m[9] = {3, 0, 0, 0, 7, 0, 0, 0, 1};
  const auto es = jacobi_eigen_sym(std::span<const double>(m, 9), 3);
  EXPECT_NEAR(es.values[0], 7, 1e-10);
  EXPECT_NEAR(es.values[1], 3, 1e-10);
  EXPECT_NEAR(es.values[2], 1, 1e-10);
  // Leading eigenvector should be +-e_y.
  EXPECT_NEAR(std::abs(es.vectors[1]), 1.0, 1e-9);
}

TEST(Eigen, SymmetricKnownEigenvalues) {
  // [[2,1],[1,2]] has eigenvalues 3 and 1.
  const double m[4] = {2, 1, 1, 2};
  const auto es = jacobi_eigen_sym(std::span<const double>(m, 4), 2);
  EXPECT_NEAR(es.values[0], 3, 1e-10);
  EXPECT_NEAR(es.values[1], 1, 1e-10);
}

TEST(Eigen, HornRecoversRotation) {
  Rng rng(2);
  const Mat3 truth = rotation_zyx(0.7, -0.3, 0.4);
  Mat3 corr{{{0, 0, 0}, {0, 0, 0}, {0, 0, 0}}};
  for (int i = 0; i < 50; ++i) {
    const Vec3 b = Vec3{rng.gaussian(), rng.gaussian(), rng.gaussian()}.normalized();
    const Vec3 w = truth * b;
    corr.m[0][0] += w.x * b.x; corr.m[0][1] += w.x * b.y; corr.m[0][2] += w.x * b.z;
    corr.m[1][0] += w.y * b.x; corr.m[1][1] += w.y * b.y; corr.m[1][2] += w.y * b.z;
    corr.m[2][0] += w.z * b.x; corr.m[2][1] += w.z * b.y; corr.m[2][2] += w.z * b.z;
  }
  const Mat3 rec = horn_rotation(corr);
  EXPECT_LT(rotation_angle_between(rec, truth), 1e-6);
}

TEST(DifferentialEvolution, MinimizesSphere) {
  Rng rng(3);
  const auto sphere = [](std::span<const double> v) {
    double s = 0;
    for (double x : v) s += (x - 1.5) * (x - 1.5);
    return s;
  };
  const double lo[3] = {-10, -10, -10};
  const double hi[3] = {10, 10, 10};
  DeConfig cfg;
  cfg.max_generations = 200;
  cfg.time_budget_sec = 5.0;
  const auto result = differential_evolution(sphere, lo, hi, cfg, rng);
  for (double x : result.best) EXPECT_NEAR(x, 1.5, 0.01);
  EXPECT_LT(result.cost, 1e-3);
}

TEST(DifferentialEvolution, RespectsBounds) {
  Rng rng(4);
  const auto f = [](std::span<const double> v) { return -v[0]; };  // push up
  const double lo[1] = {0};
  const double hi[1] = {2};
  const auto result = differential_evolution(f, lo, hi, {}, rng);
  EXPECT_LE(result.best[0], 2.0 + 1e-12);
  EXPECT_NEAR(result.best[0], 2.0, 1e-6);
}

TEST(DifferentialEvolution, TimeBounded) {
  Rng rng(5);
  const auto slow = [](std::span<const double> v) { return v[0] * v[0]; };
  const double lo[1] = {-1};
  const double hi[1] = {1};
  DeConfig cfg;
  cfg.time_budget_sec = 0.0;  // expire immediately
  cfg.max_generations = 1'000'000;
  const auto result = differential_evolution(slow, lo, hi, cfg, rng);
  EXPECT_TRUE(result.hit_time_bound);
  EXPECT_LT(result.generations, 2u);
}

TEST(DifferentialEvolution, BitIdenticalForAnyPoolSize) {
  // Rastrigin-style multimodal objective: pool-size-dependent evaluation
  // order would show up as a different trajectory almost immediately.
  const auto rastrigin = [](std::span<const double> v) {
    double s = 10.0 * static_cast<double>(v.size());
    for (double x : v) s += x * x - 10.0 * std::cos(2.0 * kPi * x);
    return s;
  };
  const double lo[4] = {-5.12, -5.12, -5.12, -5.12};
  const double hi[4] = {5.12, 5.12, 5.12, 5.12};
  DeConfig cfg;
  cfg.max_generations = 60;
  cfg.time_budget_sec = 100.0;  // never hit: the wall clock must not steer

  const auto run = [&](ThreadPool* pool) {
    DeConfig c = cfg;
    c.pool = pool;
    Rng rng(77);  // fresh identically-seeded rng per run
    return differential_evolution(rastrigin, lo, hi, c, rng);
  };
  const DeResult reference = run(nullptr);
  ASSERT_FALSE(reference.hit_time_bound);
  for (const std::size_t threads : {1u, 4u, 16u}) {
    SCOPED_TRACE(threads);
    ThreadPool pool(threads);
    const DeResult got = run(&pool);
    EXPECT_EQ(got.cost, reference.cost);  // exact, not near
    EXPECT_EQ(got.generations, reference.generations);
    EXPECT_EQ(got.hit_time_bound, reference.hit_time_bound);
    ASSERT_EQ(got.best.size(), reference.best.size());
    for (std::size_t d = 0; d < got.best.size(); ++d) {
      EXPECT_EQ(got.best[d], reference.best[d]);
    }
  }
}

TEST(Localize, RecoversKnownCameraPosition) {
  // Build synthetic observations from a known camera.
  CameraIntrinsics intr{640, 480, 1.15};
  const Vec3 cam_pos{3.0, 4.0, 1.5};
  const Mat3 cam_rot = rotation_zyx(0.4, 0.05, 0.0);
  const Pose pose{cam_rot, cam_pos};

  Rng rng(6);
  std::vector<Observation> obs;
  for (int i = 0; i < 25; ++i) {
    const Vec3 body{rng.uniform(-1.5, 1.5), rng.uniform(-1.0, 1.0),
                    rng.uniform(2.5, 7.0)};
    const auto px = intr.project(body);
    if (!px) continue;
    obs.push_back({*px, pose.to_world(body)});
  }
  ASSERT_GE(obs.size(), 10u);

  LocalizeConfig cfg;
  cfg.search_lo = {-10, -10, 0};
  cfg.search_hi = {15, 15, 4};
  cfg.de.time_budget_sec = 2.0;
  cfg.de.max_generations = 500;
  Rng solver_rng(7);
  const auto result = localize(obs, intr, cfg, solver_rng);
  ASSERT_TRUE(result.has_value());
  EXPECT_LT(result->pose.translation.distance(cam_pos), 0.15)
      << "got (" << result->pose.translation.x << ","
      << result->pose.translation.y << "," << result->pose.translation.z << ")";
  // Orientation recovery should be close too.
  EXPECT_LT(rotation_angle_between(result->pose.rotation, cam_rot), 0.05);
}

TEST(Localize, RejectsDegenerateInput) {
  CameraIntrinsics intr{640, 480, 1.15};
  Rng rng(8);
  std::vector<Observation> two{{{10, 10}, {0, 0, 0}}, {{20, 20}, {1, 0, 0}}};
  EXPECT_FALSE(localize(two, intr, {}, rng).has_value());
  // All world points identical -> degenerate spread.
  std::vector<Observation> same{{{10, 10}, {1, 1, 1}},
                                {{40, 40}, {1, 1, 1}},
                                {{80, 20}, {1, 1, 1}}};
  EXPECT_FALSE(localize(same, intr, {}, rng).has_value());
}

// --- Fig. 12 objective: exactness against the per-pair formulation ------
//
// The reference below is the per-pair objective as it stood before the
// position-independent terms were hoisted into LocalizationObjective,
// copied verbatim; the solve pipeline around it is the same localize()
// driven by that reference. Every comparison is EXPECT_EQ on doubles: the
// hoist may not move a single bit.

double reference_localization_cost(
    Vec3 a, std::span<const Observation> obs,
    std::span<const std::pair<std::size_t, std::size_t>> pairs,
    const CameraIntrinsics& cam) noexcept {
  double cost = 0;
  for (const auto& [i, j] : pairs) {
    const Vec3 ri = cam.pixel_ray(obs[i].pixel);
    const Vec3 rj = cam.pixel_ray(obs[j].pixel);
    const double observed =
        std::acos(std::clamp(ri.dot(rj), -1.0, 1.0));

    const Vec3 di = obs[i].world_point - a;
    const Vec3 dj = obs[j].world_point - a;
    const double ni = di.norm();
    const double nj = dj.norm();
    if (ni < 1e-9 || nj < 1e-9) {
      cost += 10.0;  // candidate sits on a landmark: strongly penalize
      continue;
    }
    const double subtended =
        std::acos(std::clamp(di.dot(dj) / (ni * nj), -1.0, 1.0));
    const double e = observed - subtended;
    cost += e * e;
  }
  return cost;
}

std::vector<std::pair<std::size_t, std::size_t>> reference_select_pairs(
    std::size_t n, std::size_t max_pairs, Rng& rng) {
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  const std::size_t total = n * (n - 1) / 2;
  pairs.reserve(std::min(total, max_pairs));
  if (total <= max_pairs) {
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i + 1; j < n; ++j) pairs.emplace_back(i, j);
    return pairs;
  }
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

std::vector<double> reference_residuals(Vec3 a,
                                        std::span<const Observation> obs,
                                        const CameraIntrinsics& cam) {
  std::vector<double> res(obs.size(), 0.0);
  for (std::size_t i = 0; i < obs.size(); ++i) {
    const Vec3 ri = cam.pixel_ray(obs[i].pixel);
    const Vec3 di = obs[i].world_point - a;
    const double ni = di.norm();
    double sum = 0;
    for (std::size_t j = 0; j < obs.size(); ++j) {
      if (j == i) continue;
      const Vec3 rj = cam.pixel_ray(obs[j].pixel);
      const double observed = std::acos(std::clamp(ri.dot(rj), -1.0, 1.0));
      const Vec3 dj = obs[j].world_point - a;
      const double nj = dj.norm();
      if (ni < 1e-9 || nj < 1e-9) {
        sum += 1.0;
        continue;
      }
      const double subtended =
          std::acos(std::clamp(di.dot(dj) / (ni * nj), -1.0, 1.0));
      sum += std::abs(observed - subtended);
    }
    res[i] = sum / static_cast<double>(obs.size() - 1);
  }
  return res;
}

struct ReferenceSolve {
  Vec3 position;
  double cost = 0;
  std::size_t pairs = 0;
  std::size_t generations = 0;
};

ReferenceSolve reference_solve_position(std::span<const Observation> obs,
                                        const CameraIntrinsics& cam,
                                        const LocalizeConfig& config,
                                        Rng& rng) {
  const auto pairs = reference_select_pairs(obs.size(), config.max_pairs, rng);
  const std::array<double, 3> lo{config.search_lo.x, config.search_lo.y,
                                 config.search_lo.z};
  const std::array<double, 3> hi{config.search_hi.x, config.search_hi.y,
                                 config.search_hi.z};
  const auto objective = [&](std::span<const double> v) {
    return reference_localization_cost({v[0], v[1], v[2]}, obs, pairs, cam);
  };
  const DeResult de = differential_evolution(objective, lo, hi, config.de, rng);
  return {{de.best[0], de.best[1], de.best[2]}, de.cost, pairs.size(),
          de.generations};
}

/// localize() with the reference objective and residuals; the degenerate
/// checks are left out (callers pass well-spread observations).
LocalizeResult reference_localize(std::span<const Observation> obs,
                                  const CameraIntrinsics& cam,
                                  const LocalizeConfig& config, Rng& rng) {
  std::vector<Observation> working(obs.begin(), obs.end());
  ReferenceSolve solved = reference_solve_position(working, cam, config, rng);
  std::size_t generations = solved.generations;
  for (std::size_t round = 0; round < config.refine_rounds; ++round) {
    const std::size_t keep = std::max<std::size_t>(
        4, static_cast<std::size_t>(static_cast<double>(working.size()) *
                                    config.refine_keep));
    if (keep >= working.size()) break;
    const auto residuals = reference_residuals(solved.position, working, cam);
    std::vector<std::size_t> order(working.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return residuals[a] < residuals[b];
    });
    std::vector<Observation> kept;
    kept.reserve(keep);
    for (std::size_t i = 0; i < keep; ++i) kept.push_back(working[order[i]]);
    working = std::move(kept);
    solved = reference_solve_position(working, cam, config, rng);
    generations += solved.generations;
  }
  LocalizeResult out;
  out.pose.translation = solved.position;
  out.pose.rotation = recover_orientation(solved.position, working, cam);
  out.residual = solved.cost;
  out.pairs_used = solved.pairs;
  out.generations = generations;
  return out;
}

/// `n` observations with pixels anywhere in the image and world points in
/// a 24 x 6 x 3 m room; every fifth pixel repeats an earlier one so that
/// zero observed angles occur.
std::vector<Observation> random_observations(std::size_t n,
                                             const CameraIntrinsics& cam,
                                             Rng& rng) {
  std::vector<Observation> obs;
  for (std::size_t k = 0; k < n; ++k) {
    Vec2 px{rng.uniform(0.0, cam.width), rng.uniform(0.0, cam.height)};
    if (k >= 5 && k % 5 == 0) px = obs[rng.uniform_u64(k)].pixel;
    obs.push_back({px, {rng.uniform(0.0, 24.0), rng.uniform(0.0, 6.0),
                        rng.uniform(0.0, 3.0)}});
  }
  return obs;
}

TEST(Localize, ObjectiveBitIdenticalToPerPairReference) {
  const CameraIntrinsics cam{640, 480, 1.15};
  Rng rng(2016);
  std::size_t landmark_hits = 0;
  for (const std::size_t n : {3u, 4u, 7u, 12u, 29u, 46u, 90u, 200u}) {
    SCOPED_TRACE(n);
    const auto obs = random_observations(n, cam, rng);
    // Full pair set, the localize() subsample, and an unordered random
    // draw with repeats.
    std::vector<std::vector<std::pair<std::size_t, std::size_t>>> sets;
    sets.push_back(reference_select_pairs(n, n * n, rng));
    sets.push_back(reference_select_pairs(n, 400, rng));
    auto& drawn = sets.emplace_back();
    for (int k = 0; k < 300; ++k) {
      const std::size_t i = rng.uniform_u64(n);
      const std::size_t j = rng.uniform_u64(n);
      if (i != j) drawn.emplace_back(i, j);
    }
    for (const auto& pairs : sets) {
      const LocalizationObjective objective(obs, pairs, cam);
      std::vector<Vec3> candidates;
      for (int k = 0; k < 20; ++k) {  // inside the search box
        candidates.push_back({rng.uniform(0.0, 24.0), rng.uniform(0.0, 6.0),
                              rng.uniform(0.0, 3.0)});
      }
      for (int k = 0; k < 5; ++k) {  // outside it, near and far
        candidates.push_back({rng.uniform(-500.0, -1.0),
                              rng.uniform(7.0, 40.0),
                              rng.uniform(-1e4, 1e4)});
      }
      // Exactly on a landmark that a pair uses: the +10 penalty branch.
      candidates.push_back(obs[pairs.front().first].world_point);
      candidates.push_back(obs[pairs.back().second].world_point);
      for (const Vec3 a : candidates) {
        const double want = reference_localization_cost(a, obs, pairs, cam);
        EXPECT_EQ(objective(a), want);
        if (want >= 10.0) ++landmark_hits;
      }
    }
  }
  EXPECT_GE(landmark_hits, 8u);  // the penalty branch really ran
}

TEST(Localize, MatchesReferenceSolveForAnyPoolSize) {
  // Observations of a known camera plus mismatched retrievals, so the
  // refinement round drops some. 30 observations give 435 pairs, above
  // max_pairs, so the subsampled pair set is exercised; 10 use them all.
  const CameraIntrinsics cam{640, 480, 1.15};
  const Pose pose{rotation_zyx(0.4, 0.05, 0.0), {3.0, 4.0, 1.5}};
  for (const std::size_t n : {10u, 30u}) {
    SCOPED_TRACE(n);
    Rng rng(40 + n);
    std::vector<Observation> obs;
    while (obs.size() < n) {
      const Vec3 body{rng.uniform(-1.5, 1.5), rng.uniform(-1.0, 1.0),
                      rng.uniform(2.5, 7.0)};
      const auto px = cam.project(body);
      if (!px) continue;
      Vec3 world = pose.to_world(body);
      if (obs.size() % 4 == 3) world = world + Vec3{2.0, -1.0, 0.5};
      obs.push_back({*px, world});
    }
    LocalizeConfig cfg;
    cfg.search_lo = {-10, -10, 0};
    cfg.search_hi = {15, 15, 4};
    cfg.de.max_generations = 25;
    cfg.de.time_budget_sec = 100.0;  // never hit: the wall clock must not steer
    Rng ref_rng(7);
    const LocalizeResult want = reference_localize(obs, cam, cfg, ref_rng);
    const std::uint64_t ref_next = ref_rng.next_u64();

    std::vector<std::unique_ptr<ThreadPool>> pools;
    pools.push_back(nullptr);
    pools.push_back(std::make_unique<ThreadPool>(1));
    pools.push_back(std::make_unique<ThreadPool>(4));
    for (const auto& pool : pools) {
      SCOPED_TRACE(pool ? pool->thread_count() : 0);
      LocalizeConfig c = cfg;
      c.de.pool = pool.get();
      Rng solver_rng(7);
      const auto got = localize(obs, cam, c, solver_rng);
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(got->pose.translation.x, want.pose.translation.x);
      EXPECT_EQ(got->pose.translation.y, want.pose.translation.y);
      EXPECT_EQ(got->pose.translation.z, want.pose.translation.z);
      for (int r = 0; r < 3; ++r) {
        for (int k = 0; k < 3; ++k) {
          EXPECT_EQ(got->pose.rotation.m[r][k], want.pose.rotation.m[r][k]);
        }
      }
      EXPECT_EQ(got->residual, want.residual);
      EXPECT_EQ(got->pairs_used, want.pairs_used);
      EXPECT_EQ(got->generations, want.generations);
      EXPECT_FALSE(got->hit_time_bound);
      // Same number of draws from the caller's rng as the reference.
      EXPECT_EQ(solver_rng.next_u64(), ref_next);
    }
  }
}

TEST(Localize, GenerationsSumOverRefineRounds) {
  const CameraIntrinsics cam{640, 480, 1.15};
  Rng rng(9);
  const auto obs = random_observations(20, cam, rng);
  LocalizeConfig cfg;
  cfg.search_lo = {0, 0, 0};
  cfg.search_hi = {24, 6, 3};
  cfg.de.max_generations = 7;
  cfg.de.stall_generations = 100;  // run every generation
  cfg.de.time_budget_sec = 100.0;
  for (const std::size_t rounds : {0u, 1u, 2u}) {
    cfg.refine_rounds = rounds;
    Rng solver_rng(3);
    const auto got = localize(obs, cam, cfg, solver_rng);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->generations, 7 * (rounds + 1));
  }
}

TEST(PointGrid, FindsNearest) {
  std::vector<Vec3> pts{{0, 0, 0}, {1, 1, 1}, {5, 5, 5}};
  PointGrid grid(pts, 1.0);
  const auto hit = grid.nearest({0.9, 1.1, 1.0}, 1.0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 1u);
  EXPECT_FALSE(grid.nearest({100, 100, 100}, 2.0).has_value());
}

TEST(Icp, RecoversSmallRigidTransform) {
  Rng rng(9);
  std::vector<Vec3> target;
  for (int i = 0; i < 400; ++i) {
    // Points on two perpendicular planes (gives ICP full constraints).
    if (i % 2 == 0) {
      target.push_back({rng.uniform(0, 10), rng.uniform(0, 10), 0});
    } else {
      target.push_back({rng.uniform(0, 10), 0, rng.uniform(0, 3)});
    }
  }
  const Pose truth = Pose::from_euler({0.3, -0.2, 0.1}, 0.05, 0.0, 0.0);
  std::vector<Vec3> source;
  const Pose inv = truth.inverse();
  for (const auto& p : target) source.push_back(inv.to_world(p));

  const IcpResult result = icp_align(source, target, {});
  EXPECT_TRUE(result.converged);
  EXPECT_LT(result.mean_error, 0.05);
  // Applying the recovered transform to source should land on target.
  double err = 0;
  for (std::size_t i = 0; i < source.size(); ++i) {
    err += result.transform.to_world(source[i]).distance(target[i]);
  }
  EXPECT_LT(err / static_cast<double>(source.size()), 0.05);
}

TEST(Icp, FailsGracefullyWithNoOverlap) {
  std::vector<Vec3> a{{0, 0, 0}, {1, 0, 0}, {0, 1, 0}};
  std::vector<Vec3> b{{100, 100, 100}, {101, 100, 100}, {100, 101, 100}};
  const IcpResult result = icp_align(a, b, {});
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.correspondences, 0u);
}

}  // namespace
}  // namespace vp
