// The benchmark's own tests: every correctness check is fed the right
// answer (it must pass) and a planted wrong one (it must be rejected) — a
// shifted pose, a mis-ordered selection, a wrong byte count, a retrieval
// that disagrees with brute force, a publish that loses keypoints.
// Run with `perfbench --self-test` (or `python3 perfbench/run.py
// --self-test`); exits nonzero when any check lets a wrong answer through.
#include <cstdio>
#include <string>
#include <vector>

#include "checks.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++g_failures;
}
void accepts(const std::string& result, const char* what) {
  expect(result.empty(), what);
}
void rejects(const std::string& result, const char* what) {
  expect(!result.empty(), what);
}

vp::Feature feature(float x, std::uint8_t fill) {
  vp::Feature f;
  f.keypoint.x = x;
  f.keypoint.y = 2 * x;
  f.keypoint.scale = 1.5f;
  f.descriptor.fill(fill);
  return f;
}

void test_fix_error() {
  // Camera positions like the benchmark's: 1.45-2.4 m off either long wall
  // of a 24 x 6 x 3 m room, in front of posters at x = 5-19 m.
  const CheckBounds bounds;
  const vp::Vec3 centre{12, 3, 1.5};
  vp::Rng rng(5);
  std::vector<double> near, shifted, at_centre, centre_errors;
  for (int i = 0; i < 24; ++i) {
    const double off = rng.uniform(1.45, 2.4);
    const vp::Vec3 truth{rng.uniform(5, 19), i % 2 == 0 ? off : 6 - off,
                         rng.uniform(1.2, 1.8)};
    const vp::Vec3 fix = truth + vp::Vec3{0.5, -0.3, 0.2};
    near.push_back(fix.distance(truth));
    shifted.push_back((fix + vp::Vec3{10, 0, 0}).distance(truth));
    at_centre.push_back(centre.distance(truth));
    centre_errors.push_back(centre.distance(truth));
  }
  const auto check = [&](const std::vector<double>& errors) {
    return check_fix_error(errors, centre_errors, bounds.fix_error_median_m,
                           bounds.centre_error_share);
  };
  accepts(check(near), "fix error: fixes 0.6 m off the true pose pass");
  rejects(check(shifted), "fix error: poses shifted by 10 m are rejected");
  rejects(check(at_centre),
          "fix error: the room centre for every query is rejected");
  rejects(check({}), "fix error: no fixes at all is rejected");
  // Views that all stand within ~1.2 m of the centre: the constant answer
  // then keeps inside the metre bound, and only the comparison catches it.
  std::vector<double> close_truth_errors;
  for (int i = 0; i < 24; ++i) {
    const vp::Vec3 truth = centre + vp::Vec3{rng.uniform(-1, 1),
                                             rng.uniform(-0.6, 0.6), 0};
    close_truth_errors.push_back(centre.distance(truth));
  }
  rejects(check_fix_error(close_truth_errors, close_truth_errors,
                          bounds.fix_error_median_m, bounds.centre_error_share),
          "fix error: the room centre is rejected even within the metre bound");
}

void test_same_reply() {
  vp::LocationResponse a;
  a.frame_id = 7;
  a.found = true;
  a.position = {1.25, -3.5, 1.5};
  a.matched_keypoints = 40;
  a.place = "gallery";
  vp::LocationResponse shifted = a;
  shifted.position.x += 1e-9;
  vp::LocationResponse fewer = a;
  fewer.matched_keypoints = 39;
  accepts(check_same_reply(a, a), "reply: an identical reply passes");
  rejects(check_same_reply(shifted, a),
          "reply: a pose shifted by 1 nm is rejected");
  rejects(check_same_reply(fewer, a),
          "reply: a different match count is rejected");
}

void test_selection() {
  // Oracle counts: f3 (0) < f1 (1) < f4 (2) < f2 (3) < f0 (5); top-2 keeps
  // f3 and f1.
  const std::vector<vp::Feature> all = {feature(0, 10), feature(1, 11),
                                        feature(2, 12), feature(3, 13),
                                        feature(4, 14)};
  const std::vector<std::uint32_t> counts = {5, 1, 3, 0, 2};
  accepts(check_selection(all, counts, {all[3], all[1]}, 2),
          "selection: the two most unique keypoints pass");
  rejects(check_selection(all, counts, {all[3], all[0]}, 2),
          "selection: keeping count 5 over a dropped count 1 is rejected");
  rejects(check_selection(all, counts, {all[3]}, 2),
          "selection: keeping fewer than k is rejected");
  rejects(check_selection(all, counts, {all[3], feature(9, 99)}, 2),
          "selection: a keypoint the frame does not have is rejected");
  accepts(check_selection(all, {1, 1, 1, 1, 1}, {all[4], all[0]}, 2),
          "selection: ties may go either way");
}

void test_wire_bytes() {
  vp::FingerprintQuery q;
  q.place = "gallery";
  for (int i = 0; i < 17; ++i) q.features.push_back(feature(float(i), 3));
  const std::size_t raw = q.encode().size();
  accepts(check_query_bytes(raw, q.place.size(), 17, false),
          "wire: a raw v2 query encoded by the program matches the layout");
  rejects(check_query_bytes(raw + 1, q.place.size(), 17, false),
          "wire: one byte too many is rejected");
  rejects(check_query_bytes(raw - 144, q.place.size(), 17, false),
          "wire: a feature short is rejected");
  q.codes.assign(17 * vp::kPqCodeBytes, 5);
  q.codebook_epoch = 3;
  const std::size_t compact = q.encode().size();
  accepts(check_query_bytes(compact, q.place.size(), 17, true),
          "wire: a compact v4 query encoded by the program matches the layout");
  rejects(check_query_bytes(compact, q.place.size(), 17, false),
          "wire: a compact size checked as raw is rejected");
  rejects(check_query_bytes(raw, q.place.size(), 17, true),
          "wire: a raw size checked as compact is rejected");
}

void test_retrieval() {
  vp::Rng rng(11);
  const std::size_t n = 64;
  std::vector<std::uint8_t> db(n * 128);
  for (auto& b : db) b = static_cast<std::uint8_t>(rng.uniform_u64(256));
  std::vector<std::uint32_t> truth, right, wrong;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<std::uint8_t> q(db.begin() + static_cast<std::ptrdiff_t>(i * 128),
                                db.begin() + static_cast<std::ptrdiff_t>(i * 128 + 128));
    q[0] = static_cast<std::uint8_t>(q[0] ^ 1);  // near, not equal
    std::uint32_t d2 = 0;
    const std::uint32_t id = brute_force_nn(q.data(), db.data(), n, &d2);
    expect(id == i && d2 <= 255 * 255, "brute force finds the planted neighbour");
    truth.push_back(id);
    right.push_back(static_cast<std::uint32_t>(i));
    wrong.push_back(i % 2 == 0 ? static_cast<std::uint32_t>((i + 1) % n)
                               : static_cast<std::uint32_t>(i));
  }
  accepts(check_recall(recall_at_1(right, truth), n, 0.8),
          "recall: an index that agrees with brute force passes");
  rejects(check_recall(recall_at_1(wrong, truth), n, 0.8),
          "recall: an index wrong on half the features is rejected");
  rejects(check_recall(0.0, 0, 0.8), "recall: no samples is rejected");
  std::vector<std::uint8_t> tie(2 * 128, 7);
  std::uint32_t d2 = 1;
  expect(brute_force_nn(tie.data(), tie.data(), 2, &d2) == 0 && d2 == 0,
         "brute force breaks ties toward the lowest id");
}

void test_place_and_publish() {
  accepts(check_place_share(8, 9, 0.75), "lost: 8 of 9 right places passes");
  rejects(check_place_share(2, 9, 0.75),
          "lost: answers from the wrong venue are rejected");
  accepts(check_publish(1000, 1120, 120, 4, 5),
          "publish: +batch keypoints and a higher epoch passes");
  rejects(check_publish(1000, 1119, 120, 4, 5),
          "publish: a lost keypoint is rejected");
  rejects(check_publish(1000, 1120, 120, 5, 5),
          "publish: an unchanged epoch is rejected");
}

}  // namespace

int run_self_test() {
  test_fix_error();
  test_same_reply();
  test_selection();
  test_wire_bytes();
  test_retrieval();
  test_place_and_publish();
  std::printf("self-test: %s\n", g_failures == 0 ? "all checks reject planted wrong answers"
                                                : "FAILED");
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
