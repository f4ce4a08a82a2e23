#include "replay.hpp"

#include <limits>

#include "features/sift.hpp"
#include "geometry/clustering.hpp"
#include "geometry/localize.hpp"
#include "imaging/filters.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

namespace {

double median_of(const Tracer& tracer, const std::string& name) {
  return median(tracer.durations_ms(name));
}

double total_of(const Tracer& tracer, const std::string& name) {
  double sum = 0;
  for (const double d : tracer.durations_ms(name)) sum += d;
  return sum;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

void replay_frame(Tracer& tracer, LayerCounts& counts,
                  vp::VisualPrintClient& phone, const vp::ImageF& image,
                  const vp::PqCodebook* codebook) {
  const vp::SiftConfig& sift = phone.config().sift;
  {
    Tracer::Span s(tracer, "imaging.blur_gate");
    volatile double v = vp::variance_of_laplacian(image);
    (void)v;
  }
  {
    Tracer::Span s(tracer, "features.pyramid");
    const auto space = vp::detail::build_scale_space(image, sift);
    (void)space;
  }
  Tracer::Span detect_span(tracer, "features.detect");
  const auto keypoints = vp::sift_detect_keypoints(image, sift);
  const double detect_ms = detect_span.close();
  Tracer::Span sift_span(tracer, "features.sift");
  std::vector<vp::Feature> all = vp::sift_detect(image, sift);
  const double sift_ms = sift_span.close();
  counts.frames += 1;
  counts.keypoints += static_cast<double>(all.size());
  counts.descriptor_ms += std::max(0.0, sift_ms - detect_ms);
  (void)keypoints;

  std::vector<vp::Descriptor> descriptors;
  descriptors.reserve(all.size());
  for (const auto& f : all) descriptors.push_back(f.descriptor);
  {
    Tracer::Span s(tracer, "hashing.score");
    const auto scores = phone.oracle()->count_batch(descriptors);
    (void)scores;
  }
  counts.scored_keypoints += static_cast<double>(descriptors.size());

  std::vector<vp::Feature> selected;
  {
    Tracer::Span s(tracer, "core.select");
    selected = phone.select_features(all, phone.config().top_k);
  }
  counts.selected += static_cast<double>(selected.size());

  vp::FingerprintQuery q;
  q.frame_id = 1;
  q.image_width = static_cast<std::uint16_t>(image.width());
  q.image_height = static_cast<std::uint16_t>(image.height());
  q.place = phone.oracle_place();
  q.oracle_epoch = phone.oracle_epoch();
  q.features = selected;
  if (codebook != nullptr && codebook->trained()) {
    Tracer::Span s(tracer, "features.pq_encode");
    q.codes.resize(selected.size() * vp::kPqCodeBytes);
    for (std::size_t i = 0; i < selected.size(); ++i) {
      codebook->encode(selected[i].descriptor.data(),
                       q.codes.data() + i * vp::kPqCodeBytes);
    }
    q.codebook_epoch = std::max<std::uint32_t>(1, q.oracle_epoch);
  }
  vp::Bytes bytes;
  {
    Tracer::Span s(tracer, "net.query_encode");
    bytes = q.encode();
  }
  {
    Tracer::Span s(tracer, "net.query_decode");
    const auto decoded = vp::FingerprintQuery::decode(bytes);
    (void)decoded;
  }
}

double replay_query(Tracer& tracer, LayerCounts& counts,
                    const vp::VisualPrintServer& server,
                    std::span<const std::uint8_t> query_bytes,
                    std::uint64_t seed) {
  Tracer::Span decode_span(tracer, "net.query_decode");
  const vp::FingerprintQuery q = vp::FingerprintQuery::decode(query_bytes);
  double layer_ms = decode_span.close();

  std::vector<std::shared_ptr<const vp::PlaceShard>> shards;
  if (!q.place.empty() || q.compact()) {
    const auto shard = server.store().snapshot(
        q.place.empty() ? server.store().default_place() : q.place);
    if (shard) shards.push_back(shard);
  } else {
    shards = server.store().snapshots();
  }
  vp::Rng rng(seed);
  for (const auto& shard : shards) {
    const vp::ServerConfig& cfg = shard->config;
    std::vector<vp::Descriptor> qd(q.features.size());
    for (std::size_t i = 0; i < q.features.size(); ++i) {
      if (q.compact()) {
        shard->index.pq_codebook().reconstruct(
            q.codes.data() + i * vp::kPqCodeBytes, qd[i].data());
      } else {
        qd[i] = q.features[i].descriptor;
      }
    }
    Tracer::Span retrieve_span(tracer, "index.retrieve");
    const auto batch =
        shard->index.query_batch(qd, cfg.neighbors_per_keypoint);
    layer_ms += retrieve_span.close();

    std::vector<vp::Observation> candidates;
    std::vector<vp::Vec3> points;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      for (const auto& m : batch[i]) {
        if (m.distance2 > cfg.max_match_distance2) continue;
        candidates.push_back({{q.features[i].keypoint.x, q.features[i].keypoint.y},
                              shard->stored[m.id].position});
        points.push_back(shard->stored[m.id].position);
      }
    }
    counts.features_queried += static_cast<double>(qd.size());
    counts.candidates += static_cast<double>(candidates.size());

    // Recall@1 of the index against brute force, on the features whose
    // true nearest neighbour is close enough to count as a match.
    const std::size_t n = shard->index.size();
    if (n > 0) {
      const std::uint8_t* db = shard->index.descriptor_ptr(0);
      if (shard->index.descriptor_ptr(static_cast<std::uint32_t>(n - 1)) ==
          db + (n - 1) * 128) {
        for (std::size_t i = 0; i < qd.size(); ++i) {
          std::uint32_t d2 = 0;
          const std::uint32_t bf = brute_force_nn(qd[i].data(), db, n, &d2);
          if (d2 > cfg.max_match_distance2) continue;
          counts.brute_top1.push_back(bf);
          counts.index_top1.push_back(batch[i].empty()
                                          ? std::numeric_limits<std::uint32_t>::max()
                                          : batch[i][0].id);
        }
      }
    }
    if (candidates.size() < 3) continue;

    Tracer::Span cluster_span(tracer, "geometry.cluster");
    const auto keep = vp::largest_cluster(points, cfg.clustering);
    layer_ms += cluster_span.close();
    counts.cluster_input += static_cast<double>(points.size());
    counts.clustered += static_cast<double>(keep.size());
    if (keep.size() < 3) continue;

    std::vector<vp::Observation> obs;
    obs.reserve(keep.size());
    for (const std::size_t i : keep) obs.push_back(candidates[i]);
    vp::CameraIntrinsics cam;
    cam.width = q.image_width;
    cam.height = q.image_height;
    cam.fov_h = static_cast<double>(q.fov_h);
    Tracer::Span solve_span(tracer, "geometry.solve");
    const auto result = vp::localize(obs, cam, cfg.localize, rng);
    layer_ms += solve_span.close();
    if (result && result->hit_time_bound) ++counts.time_bound_hits;
  }
  return layer_ms;
}

void replay_download(Tracer& tracer, LayerCounts& counts,
                     const vp::VisualPrintServer& server,
                     const std::string& place) {
  const auto shard = server.store().snapshot(place);
  if (!shard) return;
  vp::OracleDownload dl;
  {
    Tracer::Span s(tracer, "net.oracle_pack");
    dl = vp::OracleDownload::pack(
        shard->oracle, shard->epoch, shard->place,
        shard->index.pq_ready() ? shard->index.pq_codebook().raw()
                                : std::span<const std::uint8_t>{});
  }
  counts.oracle_wire_bytes.push_back(static_cast<double>(dl.encode().size()));
  {
    Tracer::Span s(tracer, "net.oracle_unpack");
    const auto oracle = dl.unpack();
    (void)oracle;
  }
}

void replay_inserts(Tracer& tracer, LayerCounts& counts,
                    const vp::OracleConfig& config,
                    const std::vector<vp::Descriptor>& batch) {
  vp::UniquenessOracle scratch(config);
  Tracer::Span s(tracer, "hashing.insert");
  for (const auto& d : batch) scratch.insert(d);
  s.close();
  counts.inserted_keypoints += static_cast<double>(batch.size());
}

std::uint64_t shard_solve_counter() {
  return vp::obs::Registry::global().counter("server.queries").value();
}

Metrics per_layer_metrics(const Tracer& t, const LayerCounts& c,
                          const LedgerTotals& totals, double untraced_fix_p50,
                          double traced_fix_p50) {
  Metrics m;
  m.set("imaging.blur_gate_ms", median_of(t, "imaging.blur_gate"), "ms");
  m.set("features.sift_ms", median_of(t, "features.sift"), "ms");
  m.set("features.pyramid_ms", median_of(t, "features.pyramid"), "ms");
  m.set("features.descriptor_us_per_kp",
        1e3 * ratio(c.descriptor_ms, c.keypoints), "us");
  m.set("features.keypoints_per_frame", ratio(c.keypoints, c.frames), "count");
  m.set("features.pq_encode_us_per_query",
        1e3 * median_of(t, "features.pq_encode"), "us");
  m.set("hashing.score_us_per_kp",
        1e3 * ratio(total_of(t, "hashing.score"), c.scored_keypoints), "us");
  m.set("hashing.insert_us_per_kp",
        1e3 * ratio(total_of(t, "hashing.insert"), c.inserted_keypoints), "us");
  m.set("core.select_ms", median_of(t, "core.select"), "ms");
  m.set("core.selected_ratio", ratio(c.selected, c.keypoints), "ratio");
  m.set("net.query_encode_us", 1e3 * median_of(t, "net.query_encode"), "us");
  m.set("net.query_decode_us", 1e3 * median_of(t, "net.query_decode"), "us");
  m.set("net.oracle_pack_ms", median_of(t, "net.oracle_pack"), "ms");
  m.set("net.oracle_unpack_ms", median_of(t, "net.oracle_unpack"), "ms");
  m.set("net.oracle_wire_bytes", median(c.oracle_wire_bytes), "B");
  m.set("net.transport_ms", median(c.transport_ms), "ms");
  m.set("net.retries", static_cast<double>(totals.retries), "count");
  m.set("net.sheds", static_cast<double>(totals.sheds), "count");
  m.set("net.stale_refreshes", static_cast<double>(totals.stale_refreshes),
        "count");
  m.set("index.retrieve_ms", median_of(t, "index.retrieve"), "ms");
  m.set("index.candidates_per_feature",
        ratio(c.candidates, c.features_queried), "count");
  m.set("index.recall_at_1", recall_at_1(c.index_top1, c.brute_top1), "ratio");
  m.set("geometry.cluster_ms", median_of(t, "geometry.cluster"), "ms");
  m.set("geometry.clustered_ratio", ratio(c.clustered, c.cluster_input),
        "ratio");
  m.set("geometry.solve_ms", median_of(t, "geometry.solve"), "ms");
  m.set("geometry.solves_per_fix",
        ratio(static_cast<double>(totals.shard_solves),
              static_cast<double>(totals.fixes)),
        "count");
  m.set("geometry.time_bound_hits", static_cast<double>(c.time_bound_hits),
        "count");
  auto publishes = t.durations_ms("core.publish");
  if (publishes.empty()) publishes = t.durations_ms("core.setup_publish");
  m.set("core.publish_ms", median(publishes), "ms");
  m.set("core.ingest_keypoints_per_s", median(totals.ingest_rates), "1/s");
  m.set("core.handler_ms", median_of(t, "core.handler"), "ms");
  m.set("core.unattributed_ms", median(c.unattributed_ms), "ms");
  m.set("slam.wardrive_s", median_of(t, "slam.wardrive") / 1e3, "s");
  m.set("slam.merge_s", median_of(t, "slam.merge") / 1e3, "s");
  m.set("slam.extract_s", median_of(t, "slam.extract") / 1e3, "s");
  m.set("obs.trace_overhead_pct",
        untraced_fix_p50 > 0 ? 100.0 * (traced_fix_p50 / untraced_fix_p50 - 1.0)
                             : 0.0,
        "%");
  return m;
}

}  // namespace perfbench
