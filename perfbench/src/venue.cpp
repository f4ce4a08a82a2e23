#include "venue.hpp"

#include <atomic>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "checks.hpp"
#include "core/remote.hpp"
#include "scene/environments.hpp"
#include "scene/render.hpp"
#include "slam/map_merge.hpp"
#include "slam/wardrive.hpp"

namespace perfbench {

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {

/// Venues are 24 m x 6 m x 3 m offices: unique posters on both long
/// walls, repeated partitions and doors. The wardrive's two lanes then run
/// 1.5 m from each long wall, so both walls are mapped from the distance
/// the phone photographs them at, and one venue sets up in a few seconds
/// on one core. The room is long enough that a constant answer (its
/// centre) is several metres off for most views, so the fix-error check
/// separates a working solver from one that ignores the frame.
constexpr vp::RoomConfig kRoom{
    .width = 24, .depth = 6, .height = 3, .num_scenes = 6};

}  // namespace

vp::ClientConfig phone_config() {
  vp::ClientConfig c;
  c.top_k = Knobs::kTopK;
  c.blur_threshold = 2.0;
  return c;
}

vp::Bytes Link::send(std::span<const std::uint8_t> request) {
  const auto send_start = Clock::now();
  const bool query = !request.empty() && request[0] == vp::kQueryRequest;
  if (query) {
    if (!query_sent) first_query_send = Clock::now();
    query_sent = true;
    up_bytes += static_cast<double>(request.size() - 1);
    query_sizes.push_back(request.size() - 1);
    last_query.assign(request.begin() + 1, request.end());
  }
  const auto t0 = Clock::now();
  vp::Bytes reply;
  {
    Tracer::Span s(*tracer_, query ? "core.handler" : "core.oracle_handler");
    reply = server_->handle_request(request, kSolverSeed);
  }
  const auto t1 = Clock::now();
  down_bytes += static_cast<double>(reply.size());
  if (query) {
    handler_ms += ms_between(t0, t1);
    rtt_ms += ms_between(send_start, Clock::now());
  }
  return reply;
}

void Link::begin_fix() {
  query_sent = false;
  handler_ms = 0;
  rtt_ms = 0;
  query_sizes.clear();
}

Site build_site(const std::vector<std::string>& places, std::uint64_t seed,
                double held_back_share, Tracer& tracer) {
  Site site;
  for (std::size_t i = 0; i < places.size(); ++i) {
    const auto t0 = Clock::now();
    Venue v;
    v.place = places[i];
    vp::Rng rng(mix_seed(kVenueSeed, i + 1));
    v.world = vp::build_office(kRoom, rng);
    // The room, not World::bounds: the generator places doors on a fixed
    // pitch whatever the room width, so the world's box runs far past the
    // east wall.
    v.lo = {0, 0, 0};
    v.hi = {kRoom.width, kRoom.depth, kRoom.height};

    vp::WardriveConfig wc;
    wc.intrinsics = {Knobs::kWardriveWidth, Knobs::kWardriveHeight, 1.15192};
    wc.stop_spacing = 2.5;
    wc.lane_spacing = 3.0;
    wc.views_per_stop = 2;
    std::vector<vp::Snapshot> snaps;
    {
      Tracer::Span s(tracer, "slam.wardrive");
      snaps = vp::wardrive(v.world, wc, rng);
    }
    vp::MapMergeResult merged;
    {
      Tracer::Span s(tracer, "slam.merge");
      merged = vp::merge_snapshots(snaps, {});
    }
    std::vector<vp::KeypointMapping> mappings;
    {
      Tracer::Span s(tracer, "slam.extract");
      mappings = vp::extract_mappings(snaps, merged.corrected_poses);
    }
    // An even spread of the walk's mappings is held back as "fresh"
    // wardrive data for the writer; the rest is the map the venue opens
    // with. (The walk's tail would leave one end of the room unmapped.)
    if (held_back_share > 0) {
      std::vector<vp::KeypointMapping> kept;
      for (std::size_t k = 0; k < mappings.size(); ++k) {
        const auto slot = [&](std::size_t n) {
          return static_cast<std::size_t>(static_cast<double>(n) *
                                          held_back_share);
        };
        (slot(k + 1) > slot(k) ? v.held_back : kept).push_back(mappings[k]);
      }
      mappings = std::move(kept);
    }

    v.config.oracle.capacity = Knobs::kOracleCapacity;
    v.config.index.pq.enabled = true;
    // The pose search covers the room the phone is in (README.md,
    // "Solver bound").
    v.config.localize.search_lo = v.lo;
    v.config.localize.search_hi = v.hi;
    v.config.localize.de.time_budget_sec =
        std::numeric_limits<double>::infinity();
    v.config.localize.de.max_generations = Knobs::kDeGenerations;
    v.config.place_label = v.place;
    for (std::size_t k = 0; k < mappings.size() && k < 512; ++k) {
      v.insert_sample.push_back(mappings[k].feature.descriptor);
    }
    {
      const auto ti = Clock::now();
      Tracer::Span s(tracer, "core.setup_publish");
      // The first venue's config is the server's default place, so no
      // empty default shard joins the fan-out.
      if (!site.server) {
        site.server = std::make_unique<vp::VisualPrintServer>(v.config);
      }
      site.server->ingest_wardrive(v.place, mappings, &v.config);
      v.ingest_s = s_since(ti);
    }
    v.ingested = mappings.size();
    {
      Tracer::Span s(tracer, "net.oracle_install");
      v.link = std::make_unique<Link>(*site.server, tracer);
      Link* link = v.link.get();
      v.localizer = std::make_unique<vp::RemoteLocalizer>(
          [link](std::span<const std::uint8_t> req) { return link->send(req); });
      v.localizer->enable_compact_uplink();
      const vp::OracleDownload dl = v.localizer->fetch_oracle(v.place);
      v.phone = std::make_unique<vp::VisualPrintClient>(
          phone_config(), mix_seed(seed, 50 + i));
      v.phone->install_oracle(dl);
    }
    v.setup_s = s_since(t0);
    site.venues.push_back(std::move(v));
  }
  return site;
}

std::vector<std::size_t> seeded_order(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  vp::Rng rng(mix_seed(seed, 7));
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.uniform_u64(i)]);
  }
  return order;
}

std::vector<Frame> render_frames(const Venue& venue, std::size_t venue_index,
                                 std::size_t count, unsigned threads) {
  const auto quads = vp::scene_quads(venue.world);
  if (quads.empty()) throw std::runtime_error("venue has no scenes to view");
  const vp::CameraIntrinsics intr{Knobs::kFrameWidth, Knobs::kFrameHeight,
                                  1.15192};
  const vp::SiftConfig sift = phone_config().sift;
  // View j photographs scene j % S; the v-th of V views of a scene takes
  // its azimuth from the v-th of V equal slices of +-25 degrees and a
  // distance of 1.6-2.4 m. A view is kept only when it yields more
  // keypoints than top_k, so the oracle scoring and the top-k selection
  // run on every frame; each view draws from its own stream, so views
  // render in parallel and come out the same whatever the thread count.
  const std::size_t per_scene = (count + quads.size() - 1) / quads.size();
  const auto render_view = [&](std::size_t j) {
    const std::size_t v = j / quads.size();
    for (std::size_t attempt = 0; attempt < 20; ++attempt) {
      vp::Rng rng(mix_seed(kVenueSeed, (100 + venue_index) * 1'000'000 +
                                           j * 1000 + attempt));
      const double azimuth =
          -25.0 + 50.0 * (static_cast<double>(v) + rng.uniform()) /
                      static_cast<double>(per_scene);
      const double distance = rng.uniform(1.6, 2.4);
      const vp::Camera cam = vp::view_of_quad(
          venue.world, quads[j % quads.size()], intr, azimuth, distance, rng);
      vp::ImageF image = vp::render(venue.world, cam, {}, rng).image;
      if (vp::sift_detect_keypoints(image, sift).size() > Knobs::kTopK) {
        return Frame{std::move(image), cam.pose.translation, venue_index};
      }
    }
    throw std::runtime_error("a view yields too few keypoints for top_k");
  };
  std::vector<Frame> frames(count);
  std::atomic<std::size_t> next{0};
  std::mutex error_mu;
  std::string error;
  const auto worker = [&] {
    for (std::size_t j; (j = next++) < count;) {
      try {
        frames[j] = render_view(j);
      } catch (const std::exception& ex) {
        std::lock_guard lock(error_mu);
        error = ex.what();
      }
    }
  };
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < std::max(1u, threads); ++t) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
  if (!error.empty()) throw std::runtime_error(error);
  return frames;
}

std::string verify_selection(const vp::VisualPrintClient& phone,
                             const vp::ImageF& image,
                             const std::vector<vp::Feature>& selected) {
  const auto all = vp::sift_detect(image, phone.config().sift);
  std::vector<vp::Descriptor> descriptors;
  descriptors.reserve(all.size());
  for (const auto& f : all) descriptors.push_back(f.descriptor);
  const auto counts = phone.oracle()->count_batch(descriptors);
  return check_selection(all, counts, selected, phone.config().top_k);
}

std::vector<PreparedQuery> prepare_queries(Site& site,
                                           const std::vector<Frame>& frames,
                                           std::size_t check_every,
                                           std::string& error) {
  std::vector<PreparedQuery> out;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const Frame& f = frames[i];
    vp::VisualPrintClient& phone = *site.venues[f.venue].phone;
    const vp::FrameResult fr = phone.process_frame(f.image, 0.0, 0.0);
    if (fr.status != vp::FrameResult::Status::kQueued || !fr.query) {
      error = "query frame " + std::to_string(i) + " was rejected by the client";
      return out;
    }
    if (check_every > 0 && i % check_every == 0) {
      const std::string e = verify_selection(phone, f.image, fr.query->features);
      if (!e.empty()) {
        error = e;
        return out;
      }
    }
    out.push_back({*fr.query, f.truth, f.venue});
  }
  return out;
}

double server_map_bytes(const vp::VisualPrintServer& server) {
  double bytes = 0;
  for (const auto& shard : server.store().snapshots()) {
    bytes += static_cast<double>(shard->index.byte_size() +
                                 shard->oracle.byte_size());
  }
  return bytes;
}

}  // namespace perfbench
