#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <thread>

#include "core/client.hpp"
#include "core/remote.hpp"
#include "core/retrieval.hpp"
#include "core/server.hpp"
#include "core/session.hpp"
#include "imaging/codec.hpp"
#include "obs/metrics.hpp"
#include "scene/texture.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace vp {
namespace {

Descriptor random_descriptor(Rng& rng) {
  Descriptor d;
  for (auto& v : d) v = static_cast<std::uint8_t>(rng.uniform_u64(80));
  return d;
}

Feature make_feature(Rng& rng, float x = 10, float y = 10) {
  Feature f;
  f.keypoint = {x, y, 2.0f, 0.0f, 1.0f, 0};
  f.descriptor = random_descriptor(rng);
  return f;
}

OracleConfig small_oracle() {
  OracleConfig cfg;
  cfg.capacity = 20'000;
  return cfg;
}

ServerConfig small_server() {
  ServerConfig cfg;
  cfg.oracle = small_oracle();
  return cfg;
}

TEST(Client, RequiresOracleForUniqueSelection) {
  ClientConfig cfg;
  cfg.top_k = 5;
  VisualPrintClient client(cfg);
  Rng rng(1);
  std::vector<Feature> fs;
  for (int i = 0; i < 10; ++i) fs.push_back(make_feature(rng));
  EXPECT_THROW(client.select_features(fs, 5), InvalidArgument);
}

TEST(Client, SelectsMostUniqueFirst) {
  UniquenessOracle oracle(small_oracle());
  Rng rng(2);
  // Common descriptor: inserted many times; unique: once.
  const Feature common = make_feature(rng);
  const Feature unique = make_feature(rng);
  for (int i = 0; i < 40; ++i) oracle.insert(common.descriptor);
  oracle.insert(unique.descriptor);

  ClientConfig cfg;
  cfg.top_k = 1;
  VisualPrintClient client(cfg);
  client.install_oracle(std::move(oracle));
  const auto picked = client.select_features({common, unique}, 1);
  ASSERT_EQ(picked.size(), 1u);
  EXPECT_EQ(picked[0].descriptor, unique.descriptor);
}

TEST(Client, RandomPolicyDeterministicPerSeed) {
  ClientConfig cfg;
  cfg.policy = SelectionPolicy::kRandom;
  VisualPrintClient a(cfg, 7), b(cfg, 7);
  Rng rng(3);
  std::vector<Feature> fs;
  for (int i = 0; i < 30; ++i) fs.push_back(make_feature(rng));
  const auto sa = a.select_features(fs, 10);
  const auto sb = b.select_features(fs, 10);
  ASSERT_EQ(sa.size(), 10u);
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].descriptor, sb[i].descriptor);
  }
}

TEST(Client, AllPolicyKeepsEverything) {
  ClientConfig cfg;
  cfg.policy = SelectionPolicy::kAll;
  VisualPrintClient client(cfg);
  Rng rng(4);
  std::vector<Feature> fs;
  for (int i = 0; i < 30; ++i) fs.push_back(make_feature(rng));
  EXPECT_EQ(client.select_features(fs, 10).size(), 30u);
}

TEST(Client, BlurGateRejects) {
  ClientConfig cfg;
  cfg.blur_threshold = 50.0;
  VisualPrintClient client(cfg);
  const ImageF flat(64, 64, 1, 128.0f);  // zero Laplacian variance
  const auto result = client.process_frame(flat, 0.0, 0.0);
  EXPECT_EQ(result.status, FrameResult::Status::kBlurRejected);
  EXPECT_FALSE(result.query.has_value());
}

TEST(Client, StaleFrameRejectedBeforeWork) {
  ClientConfig cfg;
  cfg.stale_frame_budget_s = 0.1;
  VisualPrintClient client(cfg);
  const ImageF frame(64, 64, 1, 128.0f);
  const auto result = client.process_frame(frame, 0.0, 5.0);
  EXPECT_EQ(result.status, FrameResult::Status::kStale);
  EXPECT_EQ(result.sift_ms, 0.0);
}

TEST(Client, ProcessFrameProducesQuery) {
  ClientConfig cfg;
  cfg.top_k = 50;
  cfg.blur_threshold = 1.0;
  VisualPrintClient client(cfg);
  client.install_oracle(UniquenessOracle(small_oracle()));
  Rng rng(5);
  const ImageF frame = painting_texture(200, 150, rng);
  const auto result = client.process_frame(frame, 1.0, 1.0);
  ASSERT_EQ(result.status, FrameResult::Status::kQueued);
  ASSERT_TRUE(result.query.has_value());
  EXPECT_GT(result.total_keypoints, 0u);
  EXPECT_LE(result.query->features.size(), 50u);
  EXPECT_EQ(result.query->image_width, 200);
  EXPECT_GT(result.sift_ms, 0.0);
}

TEST(Server, IngestAndOracleGrow) {
  VisualPrintServer server(small_server());
  Rng rng(6);
  for (int i = 0; i < 10; ++i) {
    server.ingest(make_feature(rng), {1.0 * i, 0, 1}, i % 3, 0);
  }
  EXPECT_EQ(server.keypoint_count(), 10u);
  EXPECT_EQ(server.oracle().insertions(), 10u);
  EXPECT_EQ(server.scene_count(), 3);
}

TEST(Server, SceneVotesFavorMatchingScene) {
  VisualPrintServer server(small_server());
  Rng rng(7);
  std::vector<Feature> scene_a, scene_b;
  for (int i = 0; i < 20; ++i) {
    scene_a.push_back(make_feature(rng));
    scene_b.push_back(make_feature(rng));
    server.ingest(scene_a.back(), {0, 0, 0}, 0, 0);
    server.ingest(scene_b.back(), {5, 0, 0}, 1, 0);
  }
  const auto votes = server.scene_votes(scene_a);
  ASSERT_EQ(votes.size(), 2u);
  EXPECT_GT(votes[0], votes[1] + 10);
}

TEST(Server, LocalizeQueryRecoversPosition) {
  ServerConfig cfg = small_server();
  cfg.localize.search_lo = {-10, -10, 0};
  cfg.localize.search_hi = {10, 10, 3};
  cfg.localize.de.time_budget_sec = 1.0;
  cfg.clustering.radius = 5.0;
  VisualPrintServer server(cfg);

  // Ground truth: camera at known pose looking at landmarks; ingest the
  // landmarks, then query with their projections.
  CameraIntrinsics intr{640, 480, 1.15};
  const Pose cam_pose = Pose::from_euler({2, 3, 1.5}, 0.3, 0, 0);
  Rng rng(8);
  FingerprintQuery q;
  q.image_width = 640;
  q.image_height = 480;
  q.fov_h = 1.15f;
  for (int i = 0; i < 25; ++i) {
    const Vec3 body{rng.uniform(-1.5, 1.5), rng.uniform(-1.0, 1.0),
                    rng.uniform(2.0, 6.0)};
    const auto px = intr.project(body);
    if (!px) continue;
    Feature f = make_feature(rng, static_cast<float>(px->x),
                             static_cast<float>(px->y));
    server.ingest(f, cam_pose.to_world(body), 0, 0);
    q.features.push_back(f);
  }
  ASSERT_GE(q.features.size(), 10u);
  Rng solve_rng(9);
  const LocationResponse resp = server.localize_query(q, solve_rng);
  ASSERT_TRUE(resp.found);
  EXPECT_LT(resp.position.distance({2, 3, 1.5}), 0.5);
}

TEST(Server, LocalizeFailsWithNoMatches) {
  VisualPrintServer server(small_server());
  Rng rng(10);
  FingerprintQuery q;
  q.features.push_back(make_feature(rng));
  Rng solve_rng(11);
  EXPECT_FALSE(server.localize_query(q, solve_rng).found);
}

TEST(Server, OracleSnapshotInstallsOnClient) {
  VisualPrintServer server(small_server());
  Rng rng(12);
  const Feature f = make_feature(rng);
  for (int i = 0; i < 5; ++i) server.ingest(f, {0, 0, 0}, 0, 0);
  const auto snapshot = server.oracle_snapshot();

  VisualPrintClient client({});
  client.install_oracle(snapshot);
  ASSERT_TRUE(client.has_oracle());
  EXPECT_GE(client.oracle()->count(f.descriptor), 4u);
}

TEST(Server, SaveLoadRoundtrip) {
  namespace fs = std::filesystem;
  ServerConfig cfg = small_server();
  cfg.place_label = "persistence test";
  VisualPrintServer server(cfg);
  Rng rng(31);
  std::vector<Feature> feats;
  for (int i = 0; i < 30; ++i) {
    feats.push_back(make_feature(rng));
    server.ingest(feats.back(), {1.0 * i, 2.0, 0.5}, i % 4, 9);
  }
  const auto path = (fs::temp_directory_path() / "vp_server_test.db").string();
  server.save(path);
  VisualPrintServer loaded = VisualPrintServer::load(path);
  fs::remove(path);

  EXPECT_EQ(loaded.keypoint_count(), 30u);
  EXPECT_EQ(loaded.scene_count(), 4);
  EXPECT_EQ(loaded.oracle().insertions(), 30u);
  // Stored metadata survives.
  EXPECT_DOUBLE_EQ(loaded.stored(7).position.x, 7.0);
  EXPECT_EQ(loaded.stored(7).scene_id, 3);
  // The rebuilt index answers queries identically.
  const auto votes = loaded.scene_votes(feats);
  EXPECT_EQ(votes, server.scene_votes(feats));
  // The oracle scores identically.
  for (const auto& f : feats) {
    EXPECT_EQ(loaded.oracle().count(f.descriptor),
              server.oracle().count(f.descriptor));
  }
}

TEST(Server, LoadRejectsCorruptFile) {
  ServerConfig cfg = small_server();
  VisualPrintServer server(cfg);
  Rng rng(32);
  server.ingest(make_feature(rng), {0, 0, 0}, 0, 0);
  Bytes blob = server.serialize();
  blob[1] ^= 0xFF;
  EXPECT_THROW(VisualPrintServer::deserialize(blob), DecodeError);
  blob[1] ^= 0xFF;
  blob.resize(blob.size() / 2);
  EXPECT_THROW(VisualPrintServer::deserialize(blob), DecodeError);
}

// --- MapStore: the sharded, snapshot-isolated server core ------------------

std::vector<KeypointMapping> random_mappings(Rng& rng, int n, Vec3 base) {
  std::vector<KeypointMapping> ms;
  ms.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    ms.push_back({make_feature(rng), base + Vec3{0.1 * i, 0, 0},
                  static_cast<std::uint32_t>(i)});
  }
  return ms;
}

/// A localizable place: mappings seen from a known camera pose, plus the
/// query whose features project those same landmarks.
struct PlaceFixture {
  std::vector<KeypointMapping> mappings;
  FingerprintQuery query;
  Vec3 true_position;
};

PlaceFixture make_place_fixture(Rng& rng, Vec3 cam_pos) {
  const CameraIntrinsics intr{640, 480, 1.15};
  const Pose cam_pose = Pose::from_euler(cam_pos, 0.3, 0, 0);
  PlaceFixture fx;
  fx.true_position = cam_pos;
  fx.query.image_width = 640;
  fx.query.image_height = 480;
  fx.query.fov_h = 1.15f;
  for (int i = 0; i < 25; ++i) {
    const Vec3 body{rng.uniform(-1.5, 1.5), rng.uniform(-1.0, 1.0),
                    rng.uniform(2.0, 6.0)};
    const auto px = intr.project(body);
    if (!px) continue;
    Feature f = make_feature(rng, static_cast<float>(px->x),
                             static_cast<float>(px->y));
    fx.mappings.push_back({f, cam_pose.to_world(body), 0});
    fx.query.features.push_back(f);
  }
  return fx;
}

ServerConfig localizing_server() {
  ServerConfig cfg = small_server();
  cfg.localize.search_lo = {-10, -10, 0};
  cfg.localize.search_hi = {10, 10, 3};
  // Generation/tolerance-bounded, never wall-clock-bounded: a time budget
  // truncates the solve at a load-dependent generation, which would make
  // these tests (one asserts bit-identical serial-vs-pooled answers)
  // flaky on a busy CI box.
  cfg.localize.de.time_budget_sec = 1e9;
  cfg.clustering.radius = 5.0;
  return cfg;
}

TEST(MapStore, SnapshotIsolationAndEpochBump) {
  VisualPrintServer server(small_server());
  MapStore& store = server.store();
  Rng rng(41);

  store.ingest_wardrive("hall", random_mappings(rng, 10, {0, 0, 0}));
  const auto first = store.snapshot("hall");
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->stored.size(), 10u);
  EXPECT_EQ(first->epoch, 1u);

  store.ingest_wardrive("hall", random_mappings(rng, 5, {5, 0, 0}));
  // The earlier snapshot is immutable: in-flight queries keep reading the
  // exact state they started with.
  EXPECT_EQ(first->stored.size(), 10u);
  EXPECT_EQ(first->epoch, 1u);
  const auto second = store.snapshot("hall");
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second->stored.size(), 15u);
  EXPECT_EQ(second->epoch, 2u);
  EXPECT_EQ(store.epoch("hall"), 2u);
  EXPECT_GE(store.swap_count(), 2u);
}

/// The download an uncached server would send for the current snapshot.
Bytes fresh_oracle_pack(const MapStore& store, const std::string& place) {
  const auto shard = store.snapshot(place);
  return OracleDownload::pack(shard->oracle, shard->epoch, shard->place,
                              shard->index.pq_ready()
                                  ? shard->index.pq_codebook().raw()
                                  : std::span<const std::uint8_t>{})
      .encode();
}

TEST(MapStore, OracleDownloadPackedOncePerSnapshot) {
  VisualPrintServer server(small_server());
  MapStore& store = server.store();
  Rng rng(44);
  store.ingest_wardrive("hall", random_mappings(rng, 10, {0, 0, 0}));
  store.ingest_wardrive("annex", random_mappings(rng, 10, {8, 0, 0}));
  const std::uint64_t packs0 = store.oracle_pack_count();

  const Bytes first = store.oracle_snapshot("hall").encode();
  EXPECT_EQ(store.oracle_pack_count(), packs0 + 1);
  const Bytes again = store.oracle_snapshot("hall").encode();
  EXPECT_EQ(store.oracle_pack_count(), packs0 + 1);  // served from the cache
  EXPECT_EQ(again, first);
  EXPECT_EQ(first, fresh_oracle_pack(store, "hall"));
  // Another place has its own entry and leaves hall's alone.
  (void)store.oracle_snapshot("annex");
  EXPECT_EQ(store.oracle_pack_count(), packs0 + 2);
  (void)store.oracle_snapshot("hall");
  EXPECT_EQ(store.oracle_pack_count(), packs0 + 2);

  // A publish makes a new snapshot: the next download packs it once and
  // carries the new epoch and oracle.
  store.ingest_wardrive("hall", random_mappings(rng, 5, {5, 0, 0}));
  const OracleDownload next = store.oracle_snapshot("hall");
  EXPECT_EQ(store.oracle_pack_count(), packs0 + 3);
  EXPECT_EQ(next.epoch, 2u);
  EXPECT_EQ(next.unpack().insertions(), 15u);
  EXPECT_NE(next.encode(), first);
  EXPECT_EQ(next.encode(), fresh_oracle_pack(store, "hall"));
  EXPECT_EQ(store.oracle_snapshot("hall").encode(), next.encode());
  EXPECT_EQ(store.oracle_pack_count(), packs0 + 3);
}

TEST(MapStore, OracleDownloadsRacingPublishNeverMixEpochAndOracle) {
  VisualPrintServer server(small_server());
  MapStore& store = server.store();
  Rng rng(45);
  store.ingest_wardrive("hall", random_mappings(rng, 10, {0, 0, 0}));

  constexpr int kReaders = 3;
  constexpr int kDownloadsPerReader = 20;
  constexpr int kPublishes = 8;
  std::vector<std::vector<std::pair<std::uint32_t, Bytes>>> seen(kReaders);
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&store, &seen, t] {
      for (int i = 0; i < kDownloadsPerReader; ++i) {
        const OracleDownload d = store.oracle_snapshot("hall");
        seen[static_cast<std::size_t>(t)].emplace_back(d.epoch, d.encode());
      }
    });
  }
  // Every epoch's expected download, taken by the only writer right after
  // its publish (the snapshot cannot change under it).
  std::map<std::uint32_t, Bytes> expected;
  expected[1] = fresh_oracle_pack(store, "hall");
  for (int p = 0; p < kPublishes; ++p) {
    store.ingest_wardrive("hall", random_mappings(rng, 3, {1.0 * p, 1, 0}));
    expected[store.epoch("hall")] = fresh_oracle_pack(store, "hall");
  }
  for (auto& t : readers) t.join();

  std::size_t downloads = 0;
  for (const auto& per_reader : seen) {
    for (const auto& [epoch, bytes] : per_reader) {
      ++downloads;
      ASSERT_EQ(expected.count(epoch), 1u) << "epoch " << epoch;
      EXPECT_EQ(bytes, expected[epoch]) << "epoch " << epoch;
    }
  }
  EXPECT_EQ(downloads, std::size_t{kReaders} * kDownloadsPerReader);
  EXPECT_LE(store.oracle_pack_count(), downloads);
}

TEST(MapStore, SingleIngestsVisibleOnNextRead) {
  VisualPrintServer server(small_server());
  Rng rng(42);
  // The legacy unplaced ingest loop buffers into the default builder and
  // publishes lazily; reads must still see their own writes.
  for (int i = 0; i < 8; ++i) {
    server.ingest(make_feature(rng), {1.0 * i, 0, 1}, i % 2, 0);
  }
  EXPECT_EQ(server.keypoint_count(), 8u);
  const auto shard = server.store().snapshot(server.store().default_place());
  ASSERT_NE(shard, nullptr);
  EXPECT_EQ(shard->stored.size(), 8u);
}

TEST(MapStore, TargetedAndFanoutQueries) {
  Rng rng(43);
  ServerConfig cfg = localizing_server();
  VisualPrintServer server(cfg);

  PlaceFixture a = make_place_fixture(rng, {2, 3, 1.5});
  PlaceFixture b = make_place_fixture(rng, {-5, -4, 1.2});
  ASSERT_GE(a.query.features.size(), 10u);
  ASSERT_GE(b.query.features.size(), 10u);

  ServerConfig cfg_a = cfg, cfg_b = cfg;
  cfg_a.place_label = "Wing A";
  cfg_b.place_label = "Wing B";
  server.ingest_wardrive("wing-a", a.mappings, &cfg_a);
  server.ingest_wardrive("wing-b", b.mappings, &cfg_b);
  EXPECT_EQ(server.store().place_count(), 3u);  // default + 2 wings

  // Targeted: each query routes to its shard and recovers its pose.
  a.query.place = "wing-a";
  Rng rng_a(44);
  const LocationResponse ra = server.localize_query(a.query, rng_a);
  ASSERT_TRUE(ra.found);
  EXPECT_EQ(ra.place, "wing-a");
  EXPECT_EQ(ra.place_label, "Wing A");
  EXPECT_LT(ra.position.distance(a.true_position), 0.5);

  b.query.place = "wing-b";
  Rng rng_b(45);
  const LocationResponse rb = server.localize_query(b.query, rng_b);
  ASSERT_TRUE(rb.found);
  EXPECT_EQ(rb.place, "wing-b");
  EXPECT_LT(rb.position.distance(b.true_position), 0.5);

  // Fan-out: an unplaced query is answered by the best-scoring shard.
  FingerprintQuery fan = a.query;
  fan.place.clear();
  Rng rng_fan(46);
  const LocationResponse rf = server.localize_query(fan, rng_fan);
  ASSERT_TRUE(rf.found);
  EXPECT_EQ(rf.place, "wing-a");
  EXPECT_LT(rf.position.distance(a.true_position), 0.5);
}

TEST(MapStore, FanoutDeterministicAcrossPoolSizes) {
  Rng rng(47);
  const PlaceFixture a = make_place_fixture(rng, {2, 3, 1.5});
  const PlaceFixture b = make_place_fixture(rng, {-5, -4, 1.2});

  auto run = [&](ThreadPool* pool) {
    ServerConfig cfg = localizing_server();
    cfg.pool = pool;
    VisualPrintServer server(cfg);
    server.ingest_wardrive("wing-a", a.mappings);
    server.ingest_wardrive("wing-b", b.mappings);
    FingerprintQuery fan = a.query;  // place empty -> fan out
    Rng qrng(48);
    return server.localize_query(fan, qrng);
  };

  ThreadPool pool(4);
  const LocationResponse serial = run(nullptr);
  const LocationResponse parallel = run(&pool);
  EXPECT_EQ(serial.found, parallel.found);
  EXPECT_EQ(serial.place, parallel.place);
  EXPECT_DOUBLE_EQ(serial.position.x, parallel.position.x);
  EXPECT_DOUBLE_EQ(serial.position.y, parallel.position.y);
  EXPECT_DOUBLE_EQ(serial.position.z, parallel.position.z);
  EXPECT_DOUBLE_EQ(serial.residual, parallel.residual);
}

// --- Fan-out solves only the largest clusters ------------------------------

/// The all-solve fan-out MapStore::localize ran before it solved only the
/// shards with the largest cluster, kept verbatim (shard list from
/// snapshots(), which is the store's place-name order) as the reference
/// its answers must equal bit for bit.
LocationResponse all_solve_fanout(const MapStore& store,
                                  const FingerprintQuery& query, Rng& rng,
                                  ThreadPool* pool) {
  const auto shards = store.snapshots();
  std::vector<std::uint64_t> seeds(shards.size());
  for (auto& s : seeds) s = rng.next_u64();

  // Inside the fan-out each shard's own batch/solve parallelism collapses
  // to inline execution (nested parallel_for runs on the calling worker),
  // so per-shard results stay pool-size independent.
  std::vector<LocationResponse> results(shards.size());
  const auto run = [&](std::size_t i) {
    Rng shard_rng(seeds[i]);
    results[i] = shards[i]->localize(query, shard_rng, pool);
  };
  if (pool != nullptr) {
    pool->parallel_for(shards.size(), run);
  } else {
    for (std::size_t i = 0; i < shards.size(); ++i) run(i);
  }

  // Best-scoring place: a fix beats no fix; more matched keypoints beat
  // fewer; equal support ties break toward the smaller solver residual.
  const LocationResponse* best = &results[0];
  for (const auto& r : results) {
    if (r.found != best->found) {
      if (r.found) best = &r;
      continue;
    }
    if (!r.found) continue;
    if (r.matched_keypoints != best->matched_keypoints) {
      if (r.matched_keypoints > best->matched_keypoints) best = &r;
      continue;
    }
    if (r.residual < best->residual) best = &r;
  }
  return *best;
}

void expect_same_answer(const LocationResponse& got,
                        const LocationResponse& want) {
  EXPECT_EQ(got.frame_id, want.frame_id);
  EXPECT_EQ(got.found, want.found);
  EXPECT_EQ(got.place, want.place);
  EXPECT_EQ(got.place_label, want.place_label);
  EXPECT_EQ(got.position.x, want.position.x);
  EXPECT_EQ(got.position.y, want.position.y);
  EXPECT_EQ(got.position.z, want.position.z);
  EXPECT_EQ(got.yaw, want.yaw);
  EXPECT_EQ(got.pitch, want.pitch);
  EXPECT_EQ(got.roll, want.roll);
  EXPECT_EQ(got.residual, want.residual);
  EXPECT_EQ(got.matched_keypoints, want.matched_keypoints);
}

/// A store of the given places only (no default shard), each labelled
/// "<place> label".
std::unique_ptr<MapStore> fanout_store(
    const std::vector<std::pair<std::string, std::vector<KeypointMapping>>>&
        places) {
  const ServerConfig cfg = localizing_server();
  auto store = std::make_unique<MapStore>(cfg, /*eager_default_builder=*/false);
  for (const auto& [place, mappings] : places) {
    ServerConfig place_cfg = cfg;
    place_cfg.place_label = place + " label";
    store->ingest_wardrive(place, mappings, &place_cfg);
  }
  return store;
}

/// Answers the unplaced `query` with no pool and with pools of 1 and 4
/// workers, each time against the all-solve reference run on the same
/// pool and caller seed; returns the no-pool answer.
LocationResponse expect_fanout_matches_reference(MapStore& store,
                                                 const FingerprintQuery& query,
                                                 std::uint64_t seed) {
  ThreadPool one(1), four(4);
  LocationResponse first;
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &one, &four}) {
    SCOPED_TRACE(pool == nullptr ? 0 : pool->thread_count());
    store.set_pool(pool);
    Rng rng(seed), ref_rng(seed);
    const LocationResponse got = store.localize(query, rng);
    expect_same_answer(got, all_solve_fanout(store, query, ref_rng, pool));
    // Both drew one seed per shard from the caller's rng.
    EXPECT_EQ(rng.next_u64(), ref_rng.next_u64());
    if (pool == nullptr) first = got;
  }
  store.set_pool(nullptr);
  return first;
}

#if VP_OBS_ENABLED
std::uint64_t counter_value(const char* name) {
  return obs::Registry::global().counter(name).value();
}
#endif

TEST(MapStoreFanout, MatchesAllSolveReferenceOnRandomStores) {
  std::size_t found = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed * 7919);
    const std::size_t n = 2 + static_cast<std::size_t>(rng.uniform_u64(3));
    std::vector<std::pair<std::string, std::vector<KeypointMapping>>> places;
    FingerprintQuery query;
    query.frame_id = static_cast<std::uint32_t>(seed);
    for (std::size_t j = 0; j < n; ++j) {
      const PlaceFixture fx = make_place_fixture(
          rng, {rng.uniform(-8, 8), rng.uniform(-8, 8), rng.uniform(1, 2)});
      places.emplace_back("venue-" + std::to_string(j), fx.mappings);
      // A random share of each venue's features, so cluster sizes differ
      // from shard to shard (and from case to case).
      const std::size_t k = static_cast<std::size_t>(
          rng.uniform_u64(fx.query.features.size() + 1));
      query.image_width = fx.query.image_width;
      query.image_height = fx.query.image_height;
      query.fov_h = fx.query.fov_h;
      query.features.insert(query.features.end(), fx.query.features.begin(),
                            fx.query.features.begin() +
                                static_cast<std::ptrdiff_t>(k));
    }
    const auto store = fanout_store(places);
    found += expect_fanout_matches_reference(*store, query, seed).found;
  }
  EXPECT_GE(found, 4u);  // the cases exercise fixes, not just misses
}

TEST(MapStoreFanout, TiedClusterSizesSolveEveryTiedShard) {
  Rng rng(51);
  const PlaceFixture fx = make_place_fixture(rng, {1, -2, 1.4});
  const PlaceFixture other = make_place_fixture(rng, {-6, 5, 1.1});
  // Two venues holding the same landmarks gather clusters of one size.
  const auto store = fanout_store({{"twin-a", fx.mappings},
                                   {"twin-b", fx.mappings},
                                   {"other", other.mappings}});
  FingerprintQuery query = fx.query;
  query.features.insert(query.features.end(), other.query.features.begin(),
                        other.query.features.begin() + 5);
  const LocationResponse r = expect_fanout_matches_reference(*store, query, 52);
  ASSERT_TRUE(r.found);
  EXPECT_TRUE(r.place == "twin-a" || r.place == "twin-b") << r.place;
#if VP_OBS_ENABLED
  const std::uint64_t solves0 = counter_value("localize.solves");
  Rng again(52);
  (void)store->localize(query, again);
  EXPECT_EQ(counter_value("localize.solves") - solves0, 2u);
#endif
}

TEST(MapStoreFanout, DegenerateLargestClusterFallsBackToNextSize) {
  Rng rng(53);
  const PlaceFixture fx = make_place_fixture(rng, {3, 1, 1.6});
  // Every landmark of the degenerate venue sits on one point: its cluster
  // is the largest, but the solver rejects it (no spread), so the next
  // size down has to answer.
  std::vector<KeypointMapping> coincident;
  FingerprintQuery query = fx.query;
  for (std::size_t i = 0; i < fx.query.features.size() + 10; ++i) {
    const Feature f = make_feature(rng);
    coincident.push_back({f, {1, 1, 1}, 0});
    query.features.push_back(f);
  }
  const auto store =
      fanout_store({{"degenerate", coincident}, {"real", fx.mappings}});
  const LocationResponse r = expect_fanout_matches_reference(*store, query, 54);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.place, "real");
  EXPECT_EQ(r.matched_keypoints, fx.query.features.size());
  EXPECT_LT(r.position.distance(fx.true_position), 0.5);
#if VP_OBS_ENABLED
  const std::uint64_t solves0 = counter_value("localize.solves");
  const std::uint64_t fallbacks0 = counter_value("store.fanout_fallbacks");
  Rng again(54);
  (void)store->localize(query, again);
  EXPECT_EQ(counter_value("localize.solves") - solves0, 2u);
  EXPECT_EQ(counter_value("store.fanout_fallbacks") - fallbacks0, 1u);
#endif
}

TEST(MapStoreFanout, AllMissAnswersFirstShardsNoFix) {
  Rng rng(55);
  const auto store =
      fanout_store({{"east", random_mappings(rng, 12, {0, 0, 0})},
                    {"north", random_mappings(rng, 12, {4, 0, 0})},
                    {"west", random_mappings(rng, 12, {8, 0, 0})}});
  FingerprintQuery query;
  query.frame_id = 9;
  for (int i = 0; i < 10; ++i) query.features.push_back(make_feature(rng));
  const LocationResponse r = expect_fanout_matches_reference(*store, query, 56);
  EXPECT_FALSE(r.found);
  EXPECT_EQ(r.frame_id, 9u);
  EXPECT_EQ(r.place, "east");
  EXPECT_EQ(r.place_label, "east label");
#if VP_OBS_ENABLED
  const std::uint64_t solves0 = counter_value("localize.solves");
  Rng again(56);
  (void)store->localize(query, again);
  EXPECT_EQ(counter_value("localize.solves"), solves0);
#endif
}

#if VP_OBS_ENABLED
TEST(MapStoreFanout, UntiedFanoutSolvesOnceButRetrievesEverywhere) {
  Rng rng(57);
  const PlaceFixture a = make_place_fixture(rng, {2, 3, 1.5});
  const PlaceFixture b = make_place_fixture(rng, {-5, -4, 1.2});
  const auto store =
      fanout_store({{"wing-a", a.mappings},
                    {"wing-b", b.mappings},
                    {"wing-c", random_mappings(rng, 12, {9, 9, 0})}});
  FingerprintQuery query = a.query;
  query.features.insert(query.features.end(), b.query.features.begin(),
                        b.query.features.begin() + 6);
  ThreadPool four(4);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &four}) {
    store->set_pool(pool);
    const std::uint64_t solves0 = counter_value("localize.solves");
    const std::uint64_t queries0 = counter_value("server.queries");
    const std::uint64_t fallbacks0 = counter_value("store.fanout_fallbacks");
    Rng qrng(58);
    const LocationResponse r = store->localize(query, qrng);
    ASSERT_TRUE(r.found);
    EXPECT_EQ(r.place, "wing-a");
    EXPECT_EQ(counter_value("localize.solves") - solves0, 1u);
    // server.queries still counts every shard that retrieves.
    EXPECT_EQ(counter_value("server.queries") - queries0, 3u);
    EXPECT_EQ(counter_value("store.fanout_fallbacks"), fallbacks0);
  }
  store->set_pool(nullptr);
}
#endif

TEST(MapStore, EmptyAndUnknownPlacesAnswerStructuredMiss) {
  VisualPrintServer server(small_server());
  Rng rng(49);
  FingerprintQuery q;
  q.frame_id = 77;
  q.features.push_back(make_feature(rng));

  // Empty map, unplaced query: a clean no-fix, never a throw.
  Rng r1(50);
  const LocationResponse empty = server.localize_query(q, r1);
  EXPECT_FALSE(empty.found);
  EXPECT_EQ(empty.frame_id, 77u);

  // Unknown place: same contract.
  q.place = "never-wardriven";
  Rng r2(51);
  const LocationResponse unknown = server.localize_query(q, r2);
  EXPECT_FALSE(unknown.found);

  // And over the request protocol it must be a LocationResponse frame,
  // not a VPE! error.
  ByteWriter w;
  w.u8(kQueryRequest);
  w.raw(q.encode());
  const Bytes reply = server.handle_request(w.bytes(), 1);
  ASSERT_FALSE(is_error_frame(reply));
  EXPECT_FALSE(LocationResponse::decode(reply).found);
}

TEST(MapStore, StaleOracleRejectedOverProtocol) {
  VisualPrintServer server(small_server());
  Rng rng(52);
  server.ingest_wardrive("hall", random_mappings(rng, 10, {0, 0, 0}));

  const OracleDownload download = server.oracle_snapshot("hall");
  EXPECT_EQ(download.place, "hall");
  EXPECT_EQ(download.epoch, 1u);

  // Republish: the downloaded epoch is now stale.
  server.ingest_wardrive("hall", random_mappings(rng, 5, {1, 0, 0}));

  FingerprintQuery q;
  q.place = "hall";
  q.oracle_epoch = download.epoch;
  q.features.push_back(make_feature(rng));
  ByteWriter w;
  w.u8(kQueryRequest);
  w.raw(q.encode());
  const Bytes reply = server.handle_request(w.bytes(), 1);
  ASSERT_TRUE(is_error_frame(reply));
  EXPECT_EQ(ErrorResponse::decode(reply).code, ErrorResponse::kStaleOracle);

  // Epoch 0 (no oracle installed) always passes the check.
  q.oracle_epoch = 0;
  ByteWriter w2;
  w2.u8(kQueryRequest);
  w2.raw(q.encode());
  EXPECT_FALSE(is_error_frame(server.handle_request(w2.bytes(), 1)));
}

TEST(MapStore, RemoteLocalizerRecoversFromStaleOracle) {
  Rng rng(53);
  ServerConfig cfg = localizing_server();
  VisualPrintServer server(cfg);
  PlaceFixture fx = make_place_fixture(rng, {2, 3, 1.5});
  ASSERT_GE(fx.query.features.size(), 10u);
  server.ingest_wardrive("hall", fx.mappings);

  RemoteLocalizer localizer([&server](std::span<const std::uint8_t> req) {
    return server.handle_request(req, 7);
  });
  VisualPrintClient client({});
  localizer.on_oracle_refresh(
      [&client](const OracleDownload& d) { client.install_oracle(d); });

  const OracleDownload first = localizer.fetch_oracle("hall");
  EXPECT_EQ(first.epoch, 1u);
  EXPECT_EQ(client.oracle_place(), "hall");
  EXPECT_EQ(client.oracle_epoch(), 1u);

  // The map is republished behind the client's back.
  server.ingest_wardrive("hall", fx.mappings);
  EXPECT_EQ(server.store().epoch("hall"), 2u);

  fx.query.place = "hall";
  fx.query.oracle_epoch = first.epoch;  // stale
  const LocationResponse resp = localizer.localize(fx.query);
  ASSERT_TRUE(resp.found);
  EXPECT_LT(resp.position.distance(fx.true_position), 0.5);
  EXPECT_EQ(localizer.stale_refreshes(), 1u);
  EXPECT_EQ(localizer.known_epoch("hall"), 2u);
  // The refresh hook re-installed the fresh oracle into the client.
  EXPECT_EQ(client.oracle_epoch(), 2u);
}

TEST(CompactUplink, CompactQueryLocalizesEndToEnd) {
  Rng rng(60);
  ServerConfig cfg = localizing_server();
  cfg.index.pq.enabled = true;
  VisualPrintServer server(cfg);
  PlaceFixture fx = make_place_fixture(rng, {2, 3, 1.5});
  ASSERT_GE(fx.query.features.size(), 10u);
  server.ingest_wardrive("hall", fx.mappings);
  ASSERT_EQ(server.store().storage_mode("hall"), "pq");

  RemoteLocalizer localizer([&server](std::span<const std::uint8_t> req) {
    return server.handle_request(req, 7);
  });
  localizer.enable_compact_uplink();
  const OracleDownload download = localizer.fetch_oracle("hall");
  // A PQ place ships its codebook with the oracle.
  ASSERT_EQ(download.codebook.size(), kPqCodebookBytes);
  EXPECT_TRUE(localizer.has_codebook("hall"));

  fx.query.place = "hall";
  fx.query.oracle_epoch = download.epoch;
  const LocationResponse resp = localizer.localize(fx.query);
  ASSERT_TRUE(resp.found);
  // Few stored descriptors -> every one is (close to) its own centroid, so
  // the reconstructed query ranks like the raw one and the solve succeeds.
  EXPECT_LT(resp.position.distance(fx.true_position), 0.5);
  EXPECT_EQ(localizer.compact_queries(), 1u);

  // Symmetric-ADC serving is bit-identical: flipping the runtime knob and
  // re-asking the same frame must reproduce the very same fix.
  server.store().set_compact_symmetric(true);
  const LocationResponse resp2 = localizer.localize(fx.query);
  ASSERT_TRUE(resp2.found);
  EXPECT_DOUBLE_EQ(resp2.position.x, resp.position.x);
  EXPECT_DOUBLE_EQ(resp2.position.y, resp.position.y);
  EXPECT_DOUBLE_EQ(resp2.position.z, resp.position.z);
  EXPECT_DOUBLE_EQ(resp2.residual, resp.residual);
  EXPECT_EQ(localizer.compact_queries(), 2u);
}

TEST(CompactUplink, StaleCodebookRefreshesTransparently) {
  Rng rng(61);
  ServerConfig cfg = localizing_server();
  cfg.index.pq.enabled = true;
  VisualPrintServer server(cfg);
  PlaceFixture fx = make_place_fixture(rng, {2, 3, 1.5});
  ASSERT_GE(fx.query.features.size(), 10u);
  server.ingest_wardrive("hall", fx.mappings);

  RemoteLocalizer localizer([&server](std::span<const std::uint8_t> req) {
    return server.handle_request(req, 7);
  });
  localizer.enable_compact_uplink();
  VisualPrintClient client({});
  localizer.on_oracle_refresh(
      [&client](const OracleDownload& d) { client.install_oracle(d); });
  const OracleDownload first = localizer.fetch_oracle("hall");
  EXPECT_EQ(first.epoch, 1u);
  // The codebook rides the download into the client's per-place cache too.
  EXPECT_EQ(client.codebook_blob().size(), kPqCodebookBytes);

  // Republish behind the client's back: epoch 2. The client's cached
  // codebook epoch is now stale; the server must refuse to guess.
  server.ingest_wardrive("hall", fx.mappings);
  EXPECT_EQ(server.store().epoch("hall"), 2u);

  fx.query.place = "hall";
  fx.query.oracle_epoch = first.epoch;  // stale, like the codebook
  const LocationResponse resp = localizer.localize(fx.query);
  ASSERT_TRUE(resp.found);
  EXPECT_LT(resp.position.distance(fx.true_position), 0.5);
  // One transparent refresh; both the first attempt and the re-encoded
  // resend went out compact.
  EXPECT_EQ(localizer.stale_refreshes(), 1u);
  EXPECT_EQ(localizer.known_epoch("hall"), 2u);
  EXPECT_EQ(localizer.compact_queries(), 2u);
  EXPECT_EQ(client.oracle_epoch(), 2u);
}

TEST(CompactUplink, FallsBackToRawWithoutCodebook) {
  Rng rng(62);
  ServerConfig cfg = localizing_server();  // exact storage: no codebook
  VisualPrintServer server(cfg);
  PlaceFixture fx = make_place_fixture(rng, {2, 3, 1.5});
  ASSERT_GE(fx.query.features.size(), 10u);
  server.ingest_wardrive("hall", fx.mappings);

  RemoteLocalizer localizer([&server](std::span<const std::uint8_t> req) {
    return server.handle_request(req, 7);
  });
  localizer.enable_compact_uplink();
  const OracleDownload download = localizer.fetch_oracle("hall");
  EXPECT_TRUE(download.codebook.empty());
  EXPECT_FALSE(localizer.has_codebook("hall"));

  // Compact uplink is enabled but unusable for this place: the query must
  // fall back to the raw wire format and still localize.
  fx.query.place = "hall";
  fx.query.oracle_epoch = download.epoch;
  const LocationResponse resp = localizer.localize(fx.query);
  ASSERT_TRUE(resp.found);
  EXPECT_LT(resp.position.distance(fx.true_position), 0.5);
  EXPECT_EQ(localizer.compact_queries(), 0u);
  EXPECT_EQ(localizer.stale_refreshes(), 0u);
}

TEST(MapStore, ClientCachesOraclePerPlace) {
  VisualPrintServer server(small_server());
  Rng rng(54);
  server.ingest_wardrive("wing-a", random_mappings(rng, 8, {0, 0, 0}));
  server.ingest_wardrive("wing-b", random_mappings(rng, 8, {5, 0, 0}));

  VisualPrintClient client({});
  client.install_oracle(server.oracle_snapshot("wing-a"));
  client.install_oracle(server.oracle_snapshot("wing-b"));
  EXPECT_EQ(client.cached_oracle_count(), 2u);
  EXPECT_EQ(client.oracle_place(), "wing-b");

  ASSERT_TRUE(client.select_place("wing-a"));
  EXPECT_EQ(client.oracle_place(), "wing-a");
  EXPECT_EQ(client.oracle_epoch(), 1u);
  EXPECT_FALSE(client.select_place("wing-c"));
  EXPECT_EQ(client.oracle_place(), "wing-a");  // unchanged on failure
}

TEST(MapStore, SaveLoadRoundtripMultiPlace) {
  namespace fs = std::filesystem;
  VisualPrintServer server(small_server());
  Rng rng(55);
  server.ingest_wardrive("wing-a", random_mappings(rng, 12, {0, 0, 0}));
  server.ingest_wardrive("wing-b", random_mappings(rng, 7, {5, 0, 0}));
  server.ingest_wardrive("wing-b", random_mappings(rng, 3, {6, 0, 0}));

  const auto path =
      (fs::temp_directory_path() / "vp_map_store_test.db").string();
  server.save(path);
  VisualPrintServer loaded = VisualPrintServer::load(path);
  fs::remove(path);

  EXPECT_EQ(loaded.store().default_place(), server.store().default_place());
  EXPECT_EQ(loaded.places(), server.places());
  const auto a = loaded.store().snapshot("wing-a");
  const auto b = loaded.store().snapshot("wing-b");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->stored.size(), 12u);
  EXPECT_EQ(b->stored.size(), 10u);
  // Publish epochs survive the round-trip: clients holding pre-save
  // oracles are still told the truth about staleness.
  EXPECT_EQ(a->epoch, 1u);
  EXPECT_EQ(b->epoch, 2u);
  EXPECT_EQ(loaded.oracle_snapshot("wing-b").epoch, 2u);
}

TEST(MapStore, LoadShardsMergesDatabases) {
  namespace fs = std::filesystem;
  Rng rng(56);
  const auto path_a =
      (fs::temp_directory_path() / "vp_map_store_a.db").string();
  const auto path_b =
      (fs::temp_directory_path() / "vp_map_store_b.db").string();
  {
    VisualPrintServer s(small_server());
    s.ingest_wardrive("wing-a", random_mappings(rng, 6, {0, 0, 0}));
    s.save(path_a);
  }
  {
    VisualPrintServer s(small_server());
    s.ingest_wardrive("wing-b", random_mappings(rng, 9, {5, 0, 0}));
    s.save(path_b);
  }
  VisualPrintServer merged = VisualPrintServer::load(path_a);
  merged.load_shards(path_b);
  fs::remove(path_a);
  fs::remove(path_b);

  ASSERT_NE(merged.store().snapshot("wing-a"), nullptr);
  ASSERT_NE(merged.store().snapshot("wing-b"), nullptr);
  EXPECT_EQ(merged.store().snapshot("wing-a")->stored.size(), 6u);
  EXPECT_EQ(merged.store().snapshot("wing-b")->stored.size(), 9u);
}

TEST(MapStore, TruncatedShardBlobRejected) {
  VisualPrintServer server(small_server());
  Rng rng(58);
  server.ingest_wardrive("hall", random_mappings(rng, 5, {0, 0, 0}));
  const Bytes blob = server.serialize();

  // Any truncation inside the shard blobs must throw, never misparse.
  for (std::size_t cut = 8; cut < blob.size(); cut += 97) {
    Bytes t(blob.begin(), blob.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW(VisualPrintServer::deserialize(t), DecodeError) << cut;
  }

  // A lying shard-record length field (the first record starts after
  // magic + version + the v4 total-file-size field + default place
  // string + shard count).
  Bytes lie = blob;
  ByteReader r(lie);
  r.u32();
  r.u16();
  r.u64();
  (void)r.str();
  r.u32();
  const std::size_t len_off = lie.size() - r.remaining();
  for (std::size_t i = 0; i < 4; ++i) lie[len_off + i] = 0xFF;
  EXPECT_THROW(VisualPrintServer::deserialize(lie), DecodeError);
}

/// Write `bytes` to a temp file named `name` and return its path.
std::string write_temp_db(const std::string& name,
                          std::span<const std::uint8_t> bytes) {
  const auto path = (std::filesystem::temp_directory_path() / name).string();
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  return path;
}

// Only db v4 and wire v2+ are produced anywhere, so only they are read:
// older layouts (here a hand-assembled pre-PQ v2 database and pre-shard
// v1 query, location and oracle frames) are rejected, never misparsed.
TEST(MapStore, RetiredFormatVersionsRejected) {
  Rng rng(60);
  UniquenessOracle oracle(small_oracle());
  const Feature f = make_feature(rng);
  oracle.insert(f.descriptor);

  ByteWriter shard;
  shard.str("old wing");
  shard.str("old wing");
  LshIndexConfig index_cfg;
  shard.u16(static_cast<std::uint16_t>(index_cfg.lsh.tables));
  shard.u16(static_cast<std::uint16_t>(index_cfg.lsh.projections));
  shard.f64(index_cfg.lsh.width);
  shard.u64(index_cfg.lsh.seed);
  shard.u8(index_cfg.multiprobe ? 1 : 0);
  shard.u32(static_cast<std::uint32_t>(index_cfg.max_candidates));
  shard.u32(2);       // neighbors_per_keypoint
  shard.u32(65'000);  // max_match_distance2
  shard.u32(3);       // epoch
  shard.u32(5);       // oracle_version
  shard.blob(zlib_compress(oracle.serialize(), 6));
  shard.u32(1);  // keypoint count
  shard.raw(std::span<const std::uint8_t>(f.descriptor.data(),
                                          f.descriptor.size()));
  shard.f64(1.0);
  shard.f64(2.0);
  shard.f64(0.5);
  shard.i32(0);
  shard.u32(3);
  ByteWriter db;
  db.u32(0x56504442u);  // "VPDB"
  db.u16(2);
  db.str("old wing");
  db.u32(1);
  db.blob(shard.bytes());
  EXPECT_THROW(VisualPrintServer::deserialize(db.bytes()), DecodeError);
  // The lazy loader reads the same header and rejects it at registration.
  const std::string path = write_temp_db("vp_retired_v2.db", db.bytes());
  DbLoadOptions lazy;
  lazy.lazy = true;
  EXPECT_THROW(VisualPrintServer::load(path, lazy), DecodeError);
  std::filesystem::remove(path);

  ByteWriter query;
  query.u32(0x56505121u);  // "VPQ!"
  query.u16(1);
  query.u32(7);    // frame_id
  query.f64(1.0);  // capture_time
  query.u16(920);
  query.u16(540);
  query.f32(1.1f);
  query.u32(0);  // feature count
  EXPECT_THROW(FingerprintQuery::decode(query.bytes()), DecodeError);

  ByteWriter loc;
  loc.u32(0x56504c21u);  // "VPL!"
  loc.u16(1);
  loc.u32(7);  // frame_id
  loc.u8(0);   // found
  for (int i = 0; i < 7; ++i) loc.f64(0.0);  // position, yaw/pitch/roll, residual
  loc.u32(0);  // matched_keypoints
  loc.str("hall");
  EXPECT_THROW(LocationResponse::decode(loc.bytes()), DecodeError);

  ByteWriter download;
  download.u32(0x56504f21u);  // "VPO!"
  download.u16(1);
  download.u32(7);
  download.blob(zlib_compress(oracle.serialize(), 9));
  EXPECT_THROW(OracleDownload::decode(download.bytes()), DecodeError);
}

ServerConfig pq_server() {
  ServerConfig cfg = small_server();
  cfg.index.multiprobe = true;
  cfg.index.pq.enabled = true;
  cfg.index.pq.rerank_depth = 8;
  return cfg;
}

TEST(MapStore, PqShardSaveLoadRoundtripStaysQueryReady) {
  ServerConfig cfg = pq_server();
  VisualPrintServer server(cfg);
  Rng rng(61);
  server.store().ingest_wardrive("gallery", random_mappings(rng, 40, {0, 0, 0}),
                                 &cfg);
  ASSERT_EQ(server.store().storage_mode("gallery"), "pq");
  const auto before = server.store().snapshot("gallery");
  ASSERT_NE(before, nullptr);
  ASSERT_TRUE(before->index.pq_ready());

  VisualPrintServer loaded = VisualPrintServer::deserialize(server.serialize());
  EXPECT_EQ(loaded.store().storage_mode("gallery"), "pq");
  const auto after = loaded.store().snapshot("gallery");
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->epoch, before->epoch);
  EXPECT_EQ(after->config.index.pq.rerank_depth, 8u);
  // The codebook and codes come back byte-identical — restored, not
  // retrained — so ADC rankings survive the roundtrip exactly.
  ASSERT_TRUE(after->index.pq_ready());
  const auto raw_a = before->index.pq_codebook().raw();
  const auto raw_b = after->index.pq_codebook().raw();
  ASSERT_EQ(raw_a.size(), raw_b.size());
  EXPECT_TRUE(std::equal(raw_a.begin(), raw_a.end(), raw_b.begin()));
  const auto codes_a = before->index.pq_codes();
  const auto codes_b = after->index.pq_codes();
  ASSERT_EQ(codes_a.size(), codes_b.size());
  EXPECT_TRUE(std::equal(codes_a.begin(), codes_a.end(), codes_b.begin()));
  // And queries agree match-for-match.
  for (std::uint32_t id = 0; id < 40; id += 7) {
    const auto qa = before->index.query(before->index.descriptor(id), 3);
    const auto qb = after->index.query(after->index.descriptor(id), 3);
    ASSERT_EQ(qa.size(), qb.size());
    for (std::size_t j = 0; j < qa.size(); ++j) {
      EXPECT_EQ(qa[j].id, qb[j].id);
      EXPECT_EQ(qa[j].distance2, qb[j].distance2);
    }
  }
}

TEST(MapStore, PqDatabaseTruncationRejected) {
  ServerConfig cfg = pq_server();
  VisualPrintServer server(cfg);
  Rng rng(62);
  server.store().ingest_wardrive("gallery", random_mappings(rng, 12, {0, 0, 0}),
                                 &cfg);
  const Bytes blob = server.serialize();
  ASSERT_NO_THROW(VisualPrintServer::deserialize(blob));
  // Every prefix truncation of a PQ-carrying database must throw — the
  // codebook and codes blobs are inside the cut range for the late cuts.
  for (std::size_t cut = 8; cut < blob.size(); cut += 97) {
    Bytes t(blob.begin(), blob.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW(VisualPrintServer::deserialize(t), DecodeError) << cut;
  }
}

/// A complete v4 single-shard PQ database with arbitrary codebook and
/// code payloads, assembled field by field like VisualPrintServer::save
/// writes it: `codebook_raw` is zlib'd into the shard record and
/// `codes_raw` becomes the code segment, each segment with a correct
/// crc32, so callers can write deliberately wrong sizes that no integrity
/// check catches.
Bytes v4_db_with_pq_section(std::span<const Feature> feats,
                            const UniquenessOracle& oracle,
                            std::span<const std::uint8_t> codebook_raw,
                            std::span<const std::uint8_t> codes_raw) {
  const auto count = static_cast<std::uint32_t>(feats.size());
  ByteWriter meta;
  meta.str("gallery");
  LshIndexConfig index_cfg;
  meta.u16(static_cast<std::uint16_t>(index_cfg.lsh.tables));
  meta.u16(static_cast<std::uint16_t>(index_cfg.lsh.projections));
  meta.f64(index_cfg.lsh.width);
  meta.u64(index_cfg.lsh.seed);
  meta.u8(0);
  meta.u32(static_cast<std::uint32_t>(index_cfg.max_candidates));
  meta.u32(2);       // neighbors_per_keypoint
  meta.u32(65'000);  // max_match_distance2
  meta.u8(1);        // pq.enabled
  meta.u32(8);       // pq.rerank_depth
  meta.u32(8);       // pq.train.iterations
  meta.u32(2048);    // pq.train.max_samples
  meta.u64(1);       // pq.train.seed
  meta.u32(1);       // epoch
  meta.u32(count);   // oracle_version
  meta.u32(count);   // keypoint count
  meta.u8(1);        // has_pq

  ByteWriter descriptors, keypoints;
  for (const Feature& f : feats) {
    descriptors.raw(std::span<const std::uint8_t>(f.descriptor.data(),
                                                  f.descriptor.size()));
    keypoints.f64(0.0);
    keypoints.f64(0.0);
    keypoints.f64(0.0);
    keypoints.i32(-1);
    keypoints.u32(0);
  }
  const std::span<const std::uint8_t> segments[] = {
      descriptors.bytes(), keypoints.bytes(), codes_raw};

  // Offsets are fixed-width, so sizing the header with zeros and then
  // writing it again with the real offsets yields the same length.
  const auto header = [&](std::uint64_t file_size,
                          const std::vector<std::uint64_t>& offsets) {
    ByteWriter rec;
    rec.str("gallery");
    rec.blob(zlib_compress(meta.bytes(), 6));
    rec.blob(zlib_compress(oracle.serialize(), 6));
    rec.blob(zlib_compress(codebook_raw, 6));
    rec.u8(3);
    for (std::uint8_t kind = 0; kind < 3; ++kind) {
      rec.u8(kind);
      rec.u64(offsets[kind]);
      rec.u64(segments[kind].size());
      rec.u32(crc32_of(segments[kind]));
    }
    ByteWriter w;
    w.u32(0x56504442u);  // "VPDB"
    w.u16(4);
    w.u64(file_size);
    w.str("gallery");
    w.u32(1);
    w.blob(rec.bytes());
    return w.take();
  };
  std::vector<std::uint64_t> offsets(3, 0);
  std::size_t cursor = header(0, offsets).size();
  for (std::size_t k = 0; k < 3; ++k) {
    cursor = (cursor + 4095) & ~std::size_t{4095};  // page-aligned segments
    offsets[k] = cursor;
    cursor += segments[k].size();
  }
  Bytes out(cursor, 0);
  const Bytes head = header(cursor, offsets);
  std::copy(head.begin(), head.end(), out.begin());
  for (std::size_t k = 0; k < 3; ++k) {
    std::copy(segments[k].begin(), segments[k].end(),
              out.begin() + static_cast<std::ptrdiff_t>(offsets[k]));
  }
  return out;
}

TEST(MapStore, CorruptPqSectionRejectedNotHalfLoaded) {
  Rng rng(63);
  UniquenessOracle oracle(small_oracle());
  std::vector<Feature> feats;
  for (int i = 0; i < 6; ++i) {
    feats.push_back(make_feature(rng));
    oracle.insert(feats.back().descriptor);
  }
  // A well-formed section parses (sanity for the helper itself).
  std::vector<std::uint8_t> flat;
  for (const Feature& f : feats) {
    flat.insert(flat.end(), f.descriptor.begin(), f.descriptor.end());
  }
  const PqCodebook book = PqCodebook::train(flat.data(), feats.size());
  std::vector<std::uint8_t> codes(feats.size() * kPqCodeBytes);
  for (std::size_t i = 0; i < feats.size(); ++i) {
    book.encode(flat.data() + i * kDescriptorDims,
                codes.data() + i * kPqCodeBytes);
  }
  const Bytes good = v4_db_with_pq_section(feats, oracle, book.raw(), codes);
  VisualPrintServer loaded = VisualPrintServer::deserialize(good);
  EXPECT_EQ(loaded.store().storage_mode("gallery"), "pq");

  // A codebook blob that inflates cleanly but has the wrong size (zlib
  // checksums cannot catch a substituted payload; the size check must),
  // and a codes segment covering count - 1 descriptors whose crc32 is
  // correct (the checksum passes; the count check must not).
  const std::vector<std::uint8_t> short_book(100, 7);
  const std::vector<std::uint8_t> short_codes((feats.size() - 1) *
                                              kPqCodeBytes);
  const Bytes corrupt[] = {
      v4_db_with_pq_section(feats, oracle, short_book, codes),
      v4_db_with_pq_section(feats, oracle, book.raw(), short_codes)};
  for (const Bytes& db : corrupt) {
    EXPECT_THROW(VisualPrintServer::deserialize(db), DecodeError);
    // Merging the file into a live server installs nothing either.
    VisualPrintServer live(small_server());
    const auto places_before = live.store().places();
    const std::string path = write_temp_db("vp_corrupt_pq.db", db);
    EXPECT_THROW(live.load_shards(path), DecodeError);
    EXPECT_EQ(live.store().snapshot("gallery"), nullptr);
    EXPECT_EQ(live.store().places(), places_before);
    std::filesystem::remove(path);
  }
}

TEST(MapStore, StorageModeReportsPerPlace) {
  ServerConfig exact_cfg = small_server();
  ServerConfig pq_cfg = pq_server();
  VisualPrintServer server(exact_cfg);
  Rng rng(64);
  server.store().ingest_wardrive("plain", random_mappings(rng, 6, {0, 0, 0}),
                                 &exact_cfg);
  server.store().ingest_wardrive("compact",
                                 random_mappings(rng, 6, {4, 0, 0}), &pq_cfg);
  EXPECT_EQ(server.store().storage_mode("plain"), "exact");
  EXPECT_EQ(server.store().storage_mode("compact"), "pq");
  EXPECT_EQ(server.store().storage_mode("nowhere"), "");
}

TEST(MapStoreSoak, IngestWhileServingIsRaceFree) {
  // The TSan contract behind the whole design: localization queries and
  // oracle downloads proceed concurrently with wardrive publishes, with
  // readers on immutable snapshots and writers behind the store mutex.
  VisualPrintServer server(small_server());
  Rng seed_rng(59);
  server.ingest_wardrive("hall", random_mappings(seed_rng, 10, {0, 0, 0}));
  server.ingest_wardrive("annex", random_mappings(seed_rng, 10, {8, 0, 0}));

  constexpr int kQueryThreads = 4;
  constexpr int kQueriesPerThread = 120;
  constexpr int kPublishes = 24;
  std::atomic<bool> failed{false};

  std::vector<std::thread> readers;
  readers.reserve(kQueryThreads);
  for (int t = 0; t < kQueryThreads; ++t) {
    readers.emplace_back([&server, &failed, t] {
      Rng rng(100 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kQueriesPerThread && !failed.load(); ++i) {
        try {
          FingerprintQuery q;
          q.frame_id = static_cast<std::uint32_t>(i);
          q.place = (i % 3 == 0) ? "" : ((i % 3 == 1) ? "hall" : "annex");
          // Occasionally claim an epoch to drive the staleness check
          // concurrently with publishes.
          q.oracle_epoch = (i % 5 == 0) ? 1 + static_cast<std::uint32_t>(i % 7)
                                        : 0;
          for (int k = 0; k < 4; ++k) q.features.push_back(make_feature(rng));
          ByteWriter w;
          w.u8(kQueryRequest);
          w.raw(q.encode());
          const Bytes reply = server.handle_request(w.bytes(), 7);
          if (is_error_frame(reply)) {
            if (ErrorResponse::decode(reply).code !=
                ErrorResponse::kStaleOracle) {
              failed.store(true);
            }
          } else {
            (void)LocationResponse::decode(reply);
          }
          if (i % 10 == 0) {
            ByteWriter ow;
            ow.u8(kOracleRequest);
            ow.raw(OracleRequest{"hall"}.encode());
            (void)OracleDownload::decode(server.handle_request(ow.bytes(), 7));
          }
        } catch (...) {
          failed.store(true);
        }
      }
    });
  }

  Rng ingest_rng(60);
  for (int p = 0; p < kPublishes; ++p) {
    const std::string place = (p % 2 == 0) ? "hall" : "annex";
    server.ingest_wardrive(place, random_mappings(ingest_rng, 6, {1.0 * p, 0, 0}));
  }
  for (auto& t : readers) t.join();

  EXPECT_FALSE(failed.load());
  EXPECT_EQ(server.store().epoch("hall"), 1u + kPublishes / 2);
  EXPECT_EQ(server.store().epoch("annex"), 1u + kPublishes / 2);
}

// ---------------------------------------------------------------------------
// Wire-level trace propagation through the server handler (v3) and the
// slow-query log it feeds.

Bytes framed_query(const FingerprintQuery& q) {
  ByteWriter w;
  w.u8(kQueryRequest);
  w.raw(q.encode());
  return w.take();
}

TEST(MapStore, TracedQueryEchoesServerSpans) {
  Rng rng(61);
  VisualPrintServer server(localizing_server());
  PlaceFixture fx = make_place_fixture(rng, {2, 3, 1.5});
  server.ingest_wardrive("hall", fx.mappings);
  fx.query.place = "hall";
  fx.query.trace_id = 0xFACEull;
  fx.query.trace_flags = obs::kTraceSampled;

  const Bytes reply = server.handle_request(framed_query(fx.query), 7);
  ASSERT_FALSE(is_error_frame(reply));
  const LocationResponse resp = LocationResponse::decode(reply);
  EXPECT_EQ(resp.trace_id, 0xFACEull);
#if VP_OBS_ENABLED
  // The echoed block is the handler's span tree: wire decode plus the
  // localization stages, parents always preceding children.
  ASSERT_FALSE(resp.server_spans.empty());
  std::vector<std::string> names;
  for (const auto& s : resp.server_spans) names.push_back(s.name);
  for (const char* stage : {"decode", "lsh.retrieve", "localize.solve"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), stage), names.end())
        << "missing stage " << stage;
  }
  for (std::size_t i = 0; i < resp.server_spans.size(); ++i) {
    EXPECT_GE(resp.server_spans[i].parent, -1);
    EXPECT_LT(resp.server_spans[i].parent, static_cast<std::int16_t>(i));
    EXPECT_GE(resp.server_spans[i].duration_ms, 0.0f);
  }
#else
  EXPECT_TRUE(resp.server_spans.empty());
#endif
}

TEST(MapStore, UntracedQueryAnswersByteCompatibleV2) {
  Rng rng(62);
  VisualPrintServer server(small_server());
  server.ingest_wardrive("hall", random_mappings(rng, 10, {0, 0, 0}));
  FingerprintQuery q;
  q.place = "hall";
  q.features.push_back(make_feature(rng));

  const Bytes reply = server.handle_request(framed_query(q), 7);
  ASSERT_FALSE(is_error_frame(reply));
  // A pre-trace client must see exactly what it always saw: a v2 frame
  // with no trailing trace fields.
  EXPECT_EQ(reply[4] | (reply[5] << 8), 2);
  const LocationResponse resp = LocationResponse::decode(reply);
  EXPECT_EQ(resp.trace_id, 0u);
  EXPECT_TRUE(resp.server_spans.empty());
}

TEST(MapStore, TracedUnsampledQueryOmitsSpanBlock) {
  Rng rng(63);
  VisualPrintServer server(small_server());
  server.ingest_wardrive("hall", random_mappings(rng, 10, {0, 0, 0}));
  FingerprintQuery q;
  q.place = "hall";
  q.trace_id = 5;  // correlate, but sampled bit clear: no echo requested
  q.features.push_back(make_feature(rng));

  const LocationResponse resp =
      LocationResponse::decode(server.handle_request(framed_query(q), 7));
  EXPECT_EQ(resp.trace_id, 5u);
  EXPECT_TRUE(resp.server_spans.empty());
}

TEST(MapStore, SlowQueryLogServedAsStatsFormat2) {
  Rng rng(64);
  VisualPrintServer server(localizing_server());
  PlaceFixture fx = make_place_fixture(rng, {2, 3, 1.5});
  server.ingest_wardrive("hall", fx.mappings);
  fx.query.place = "hall";
  fx.query.trace_id = 0xBEEFull;
  fx.query.trace_flags = obs::kTraceSampled;
  (void)server.handle_request(framed_query(fx.query), 7);

  EXPECT_EQ(server.slow_log().seen(), 1u);
  const auto worst = server.slow_log().worst();
  ASSERT_EQ(worst.size(), 1u);
  EXPECT_EQ(worst[0].trace_id, 0xBEEFull);
  EXPECT_EQ(worst[0].place, "hall");
  EXPECT_GT(worst[0].total_ms, 0.0);
#if VP_OBS_ENABLED
  EXPECT_FALSE(worst[0].stages.empty());
#endif

  StatsRequest req;
  req.format = StatsRequest::kFormatSlowLog;
  ByteWriter w;
  w.u8(kStatsRequest);
  w.raw(req.encode());
  const StatsResponse stats =
      StatsResponse::decode(server.handle_request(w.bytes(), 7));
  EXPECT_EQ(stats.format, StatsRequest::kFormatSlowLog);
  EXPECT_NE(stats.text.find("\"type\":\"slow_query\""), std::string::npos);
  EXPECT_NE(stats.text.find("\"trace_id\":\"000000000000beef\""),
            std::string::npos);
  EXPECT_NE(stats.text.find("\"type\":\"slow_query_summary\""),
            std::string::npos);
  EXPECT_NE(stats.text.find("\"seen\":1"), std::string::npos);
}

TEST(MapStore, RemoteLocalizerStitchesClientLinkServerLanes) {
  Rng rng(65);
  VisualPrintServer server(localizing_server());
  PlaceFixture fx = make_place_fixture(rng, {2, 3, 1.5});
  server.ingest_wardrive("hall", fx.mappings);
  fx.query.place = "hall";

  RemoteLocalizer localizer([&server](std::span<const std::uint8_t> req) {
    return server.handle_request(req, 7);
  });
  localizer.enable_tracing(1.0);
  const LocationResponse resp = localizer.localize(fx.query);
  EXPECT_NE(resp.trace_id, 0u);

  ASSERT_EQ(localizer.traces().size(), 1u);
  const obs::StitchedTrace& st = localizer.traces().front();
  EXPECT_EQ(st.trace_id, resp.trace_id);
  EXPECT_EQ(st.frame_id, fx.query.frame_id);
  ASSERT_EQ(st.link.size(), 3u);
  EXPECT_EQ(st.link[0].name, "link.rtt");
  const double rtt = st.link[0].duration_ms;
  EXPECT_GE(rtt, 0.0);
  // Inferred uplink + downlink never exceed the measured round trip.
  EXPECT_LE(st.link[1].duration_ms + st.link[2].duration_ms, rtt + 1e-9);
#if VP_OBS_ENABLED
  // Client lane saw the query encode; server lane is the echoed block,
  // placed inside the round trip on the stitched timeline.
  std::vector<std::string> client_names;
  for (const auto& s : st.client) client_names.push_back(s.name);
  EXPECT_NE(std::find(client_names.begin(), client_names.end(), "encode"),
            client_names.end());
  ASSERT_FALSE(st.server.empty());
  for (const auto& s : st.server) {
    EXPECT_GE(s.start_ms, st.link[0].start_ms - 1e-9);
  }
#endif
}

TEST(MapStore, TraceSamplingRateControlsServerEcho) {
  Rng rng(66);
  VisualPrintServer server(localizing_server());
  PlaceFixture fx = make_place_fixture(rng, {2, 3, 1.5});
  server.ingest_wardrive("hall", fx.mappings);
  fx.query.place = "hall";

  RemoteLocalizer localizer([&server](std::span<const std::uint8_t> req) {
    return server.handle_request(req, 7);
  });
  // Deterministic accumulator: at 0.5 exactly every 2nd query crosses 1.0
  // and carries the sampled bit (queries 2 and 4 of 4).
  localizer.enable_tracing(0.5);
  for (int i = 0; i < 4; ++i) (void)localizer.localize(fx.query);
  ASSERT_EQ(localizer.traces().size(), 4u);
  std::size_t echoed = 0;
  for (const auto& st : localizer.traces()) {
    EXPECT_NE(st.trace_id, 0u);  // ids flow even for unsampled queries
    if (!st.server.empty()) ++echoed;
  }
#if VP_OBS_ENABLED
  EXPECT_EQ(echoed, 2u);
#else
  EXPECT_EQ(echoed, 0u);
#endif
}

TEST(MapStore, ConcurrentTracedServingKeepsSlowLogConsistent) {
  // Mixed traced/untraced queries from many threads: every reply must
  // decode, every echo must match its query, and the slow-query log must
  // come out complete (seen == queries) and sorted without duplicates.
  VisualPrintServer server(small_server());
  {
    Rng rng(67);
    server.ingest_wardrive("hall", random_mappings(rng, 12, {0, 0, 0}));
  }
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 50;
  std::atomic<bool> failed{false};
  std::vector<std::thread> workers;
  for (int tid = 0; tid < kThreads; ++tid) {
    workers.emplace_back([&server, &failed, tid] {
      Rng rng(100 + static_cast<std::uint64_t>(tid));
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        FingerprintQuery q;
        q.place = "hall";
        q.frame_id = static_cast<std::uint32_t>(i);
        // Every other query traced + sampled; the rest stay v2.
        if (i % 2 == 0) {
          q.trace_id = static_cast<std::uint64_t>(tid) * kPerThread + i + 1;
          q.trace_flags = obs::kTraceSampled;
        }
        q.features.push_back(make_feature(rng));
        try {
          const Bytes reply = server.handle_request(framed_query(q), 7);
          const LocationResponse resp = LocationResponse::decode(reply);
          if (resp.trace_id != q.trace_id) failed = true;
        } catch (...) {
          failed = true;
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(server.slow_log().seen(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  const auto worst = server.slow_log().worst();
  EXPECT_LE(worst.size(), server.slow_log().capacity());
  EXPECT_TRUE(std::is_sorted(
      worst.begin(), worst.end(),
      [](const auto& a, const auto& b) { return a.total_ms > b.total_ms; }));
  for (const auto& q : worst) EXPECT_GT(q.total_ms, 0.0);
}

TEST(Retrieval, PredictsCorrectScene) {
  RetrievalConfig cfg;
  cfg.min_votes = 3;
  SceneDatabase db(cfg);
  Rng rng(13);
  std::vector<std::vector<Feature>> scenes;
  for (int s = 0; s < 4; ++s) {
    std::vector<Feature> fs;
    for (int i = 0; i < 25; ++i) fs.push_back(make_feature(rng));
    db.add_image(fs, s);
    scenes.push_back(std::move(fs));
  }
  for (int s = 0; s < 4; ++s) {
    for (auto kind : {MatcherKind::kLsh, MatcherKind::kBruteForce}) {
      const auto pred = db.predict(scenes[static_cast<std::size_t>(s)], kind);
      ASSERT_TRUE(pred.has_value());
      EXPECT_EQ(*pred, s);
    }
  }
}

TEST(Retrieval, AbstainsOnForeignQuery) {
  RetrievalConfig cfg;
  cfg.min_votes = 3;
  SceneDatabase db(cfg);
  Rng rng(14);
  std::vector<Feature> fs;
  for (int i = 0; i < 25; ++i) fs.push_back(make_feature(rng));
  db.add_image(fs, 0);
  std::vector<Feature> foreign;
  for (int i = 0; i < 25; ++i) foreign.push_back(make_feature(rng));
  EXPECT_FALSE(db.predict(foreign, MatcherKind::kBruteForce).has_value());
}

TEST(Retrieval, DistractorsGetNoVotes) {
  SceneDatabase db{RetrievalConfig{}};
  Rng rng(15);
  std::vector<Feature> distractor;
  for (int i = 0; i < 25; ++i) distractor.push_back(make_feature(rng));
  db.add_image(distractor, -1);  // distractor label
  EXPECT_EQ(db.scene_count(), 0);
  const auto votes = db.votes(distractor, MatcherKind::kLsh);
  EXPECT_TRUE(votes.empty());
}

TEST(Retrieval, PrecisionRecallDefinitions) {
  // 3 scenes; craft known confusion.
  using O = std::optional<std::int32_t>;
  const std::vector<O> truth{0, 0, 1, 1, 2, std::nullopt};
  const std::vector<O> pred{0, 1, 1, std::nullopt, 2, 2};
  const auto pr = precision_recall(truth, pred, 3);
  ASSERT_EQ(pr.precision.size(), 3u);
  // Scene 0: P = {0}, V = {0,1}: precision 1, recall 0.5.
  EXPECT_DOUBLE_EQ(pr.precision[0], 1.0);
  EXPECT_DOUBLE_EQ(pr.recall[0], 0.5);
  // Scene 1: P = {1,2}, V = {2,3}: tp=1 -> precision 0.5, recall 0.5.
  EXPECT_DOUBLE_EQ(pr.precision[1], 0.5);
  EXPECT_DOUBLE_EQ(pr.recall[1], 0.5);
  // Scene 2: P = {4,5}, V = {4}: precision 0.5, recall 1.
  EXPECT_DOUBLE_EQ(pr.precision[2], 0.5);
  EXPECT_DOUBLE_EQ(pr.recall[2], 1.0);
}

TEST(Retrieval, PrecisionRecallSizeMismatchThrows) {
  using O = std::optional<std::int32_t>;
  const std::vector<O> a{0};
  const std::vector<O> b{0, 1};
  EXPECT_THROW(precision_recall(a, b, 1), InvalidArgument);
}

TEST(SessionStats, CumulativeUploadMonotone) {
  SessionStats stats;
  stats.uploads = {{0, 0, 1.0, 100}, {0, 0, 0.5, 50}, {0, 0, 2.0, 200}};
  const auto curve = stats.cumulative_upload();
  ASSERT_EQ(curve.size(), 3u);
  EXPECT_DOUBLE_EQ(curve[0].second, 50);
  EXPECT_DOUBLE_EQ(curve[1].second, 150);
  EXPECT_DOUBLE_EQ(curve[2].second, 350);
  EXPECT_LT(curve[0].first, curve[1].first);
}

}  // namespace
}  // namespace vp
