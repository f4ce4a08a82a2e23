// Venue set-up and input generation. The scene generator builds each
// venue, the wardrive simulator walks it, ICP merges the walk, and the
// mappings are ingested through the server's public API. Query frames are
// rendered from the venue worlds, so each carries the true camera position
// the fix is checked against.
//
// The venues and the views photographed in them are fixtures, drawn from a
// constant seed: in this program a fix's cost and error depend strongly on
// the view (how many keypoints it yields, how much of it is a poster rather
// than repeated structure), and views drawn afresh per run made per-run
// medians swing by 20-50 % between seeds. The run's --seed draws what the
// phones do with them: the order frames and queries are sent in, each
// query's frame id (which seeds the server's pose solve), the crowd's
// arrival schedule, and the phones' own rng streams.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/client.hpp"
#include "core/remote.hpp"
#include "core/server.hpp"
#include "scene/world.hpp"
#include "slam/mapping.hpp"
#include "tracer.hpp"

namespace perfbench {

/// Fixed inputs shared by every workload (README.md, "Inputs").
struct Knobs {
  static constexpr int kWardriveWidth = 320;   ///< wardrive RGB-D frames
  static constexpr int kWardriveHeight = 240;
  static constexpr int kFrameWidth = 640;      ///< phone query frames
  static constexpr int kFrameHeight = 480;
  static constexpr std::size_t kTopK = 200;    ///< keypoints per query
  /// DE stops by generations, not by the wall clock, so a fix depends only
  /// on the query, the map and the seed (README.md, "Solver bound").
  static constexpr std::size_t kDeGenerations = 15;
  static constexpr std::size_t kOracleCapacity = 10'000;
};

/// In-process transport between a phone's RemoteLocalizer and the server:
/// handle_request called directly, with the byte and timing accounting
/// the workloads read. Single-threaded.
class Link {
 public:
  static constexpr std::uint64_t kSolverSeed = 0x5eed;

  Link(vp::VisualPrintServer& server, Tracer& tracer)
      : server_(&server), tracer_(&tracer) {}

  vp::Bytes send(std::span<const std::uint8_t> request);

  /// Forget the per-fix fields (first send instant, handler time, the
  /// query requests seen).
  void begin_fix();

  double up_bytes = 0;    ///< query request bytes, cumulative
  double down_bytes = 0;  ///< every reply's bytes, cumulative
  // Per fix:
  Clock::time_point first_query_send{};
  bool query_sent = false;
  double handler_ms = 0;  ///< server handler time of the fix's requests
  double rtt_ms = 0;      ///< send-to-reply time of the fix's requests
  std::vector<std::size_t> query_sizes;  ///< tag byte excluded
  vp::Bytes last_query;                  ///< tag byte excluded

 private:
  vp::VisualPrintServer* server_;
  Tracer* tracer_;
};

/// One set-up venue. The server holds its map; this keeps what the
/// benchmark needs to make inputs and check answers.
struct Venue {
  std::string place;
  vp::World world;
  vp::ServerConfig config;
  vp::Vec3 lo, hi;  ///< the room's box: pose search volume, fix checks
  std::vector<vp::KeypointMapping> held_back;  ///< writer batches (crowd)
  std::size_t ingested = 0;                    ///< keypoints at set-up
  /// Phone-side oracle installed at set-up (the "first oracle install"),
  /// and the localizer that fetched it (its codebook cache stays warm).
  std::unique_ptr<vp::VisualPrintClient> phone;
  std::unique_ptr<Link> link;
  std::unique_ptr<vp::RemoteLocalizer> localizer;
  /// Descriptors replayed into a scratch oracle for hashing.insert timing.
  std::vector<vp::Descriptor> insert_sample;
  double setup_s = 0;   ///< world .. first oracle install, this venue
  double ingest_s = 0;  ///< ingest_wardrive (the set-up publish)

  /// The room centre: the constant answer a fix must beat (check_fix_error).
  vp::Vec3 centre() const { return (lo + hi) * 0.5; }
};

struct Site {
  std::unique_ptr<vp::VisualPrintServer> server;
  std::vector<Venue> venues;
};

/// Seed of the venue fixtures (world + wardrive), independent of --seed.
inline constexpr std::uint64_t kVenueSeed = 2016;

/// Build the server and its venues from the fixture seed; `seed` (the
/// run's) seeds only the set-up phones. `held_back_share` of each venue's
/// mappings is kept out of the set-up ingest for later publishes. Spans
/// slam.wardrive / slam.merge / slam.extract / core.setup_publish /
/// net.oracle_install go to `tracer`.
Site build_site(const std::vector<std::string>& places, std::uint64_t seed,
                double held_back_share, Tracer& tracer);

/// A phone query frame with its ground truth.
struct Frame {
  vp::ImageF image;
  vp::Vec3 truth;
  std::size_t venue = 0;
};

/// `count` photographs of the venue's unique scenes, scene by scene, from
/// fixture angles and distances (a walk past each poster), rendered on
/// `threads` threads outside any measured window.
std::vector<Frame> render_frames(const Venue& venue, std::size_t venue_index,
                                 std::size_t count, unsigned threads);

/// A permutation of 0..n-1 drawn from `seed`.
std::vector<std::size_t> seeded_order(std::size_t n, std::uint64_t seed);

/// A query built from a frame by the venue's set-up phone.
struct PreparedQuery {
  vp::FingerprintQuery query;
  vp::Vec3 truth;
  std::size_t venue = 0;
};

/// Run each frame through its venue's set-up phone and keep the queries.
/// Checks the uniqueness selection on every `check_every`-th frame; a
/// failed check or a rejected frame is returned in `error`.
std::vector<PreparedQuery> prepare_queries(Site& site,
                                           const std::vector<Frame>& frames,
                                           std::size_t check_every,
                                           std::string& error);

/// Re-extract a frame and verify the query's top-k selection against the
/// phone's oracle (check_selection).
std::string verify_selection(const vp::VisualPrintClient& phone,
                             const vp::ImageF& image,
                             const std::vector<vp::Feature>& selected);

/// The phone configuration every workload's VisualPrintClient uses.
vp::ClientConfig phone_config();

/// Sum over published shards of index + oracle bytes, as the shards report
/// them (LshIndex::byte_size covers descriptors, buckets and PQ codes).
double server_map_bytes(const vp::VisualPrintServer& server);

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

}  // namespace perfbench
