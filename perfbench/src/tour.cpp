// `tour`: one phone walks one venue. Every pre-rendered frame goes through
// VisualPrintClient::process_frame, then a compact (v4)
// RemoteLocalizer::localize over an in-process handle_request transport —
// the paper's own path, and the only workload whose client layers
// (imaging, features, hashing) do most of the work.

#include "run_common.hpp"
#include "venue.hpp"

namespace perfbench {

namespace {

constexpr int kSetups = 3;             ///< the venue is set up this often
constexpr std::size_t kFrames = 24;    ///< one lap: 6 scenes x 4 views
constexpr std::size_t kSelectionChecks = 4;

struct TourPass {
  std::vector<double> fix_ms;
  std::vector<double> client_frame_ms;
  std::vector<double> fix_error_m;
  std::vector<double> centre_error_m;  ///< the room centre's, same fixes
  double up = 0, down = 0;
};

}  // namespace

RunOutcome run_tour(const RunArgs& args) {
  RunOutcome out;
  Tracer tracer(args.trace);
  EndToEnd e2e;
  LedgerTotals totals;

  // Set-up, three times over: the median is the run's setup_s.
  Site site;
  for (int rep = 0; rep < kSetups; ++rep) {
    site = Site{};
    site = build_site({"office"}, args.seed, 0.0, tracer);
    const Venue& v = site.venues[0];
    e2e.setup_s.push_back(v.setup_s);
    totals.ingest_rates.push_back(static_cast<double>(v.ingested) / v.ingest_s);
  }
  Venue& venue = site.venues[0];
  vp::VisualPrintServer& server = *site.server;
  vp::VisualPrintClient& phone = *venue.phone;
  vp::RemoteLocalizer& localizer = *venue.localizer;
  Link& link = *venue.link;
  const auto shard = server.store().snapshot(venue.place);
  const vp::PqCodebook* codebook = shard ? &shard->index.pq_codebook() : nullptr;

  // The walk: the fixture frames in an order drawn from the seed.
  std::vector<Frame> frames;
  {
    std::vector<Frame> fixture = render_frames(venue, 0, kFrames, args.cores);
    for (const std::size_t i : seeded_order(fixture.size(), args.seed)) {
      frames.push_back(std::move(fixture[i]));
    }
  }
  std::vector<std::vector<vp::Feature>> first_lap_selection(kSelectionChecks);

  LayerCounts layers;

  // One pass of whole laps until `seconds` have gone by. With `traced`,
  // every fix is followed by its per-layer replay (outside its timing).
  const auto pass = [&](double seconds, bool traced) {
    TourPass p;
    tracer.set_enabled(traced);
    const double up0 = link.up_bytes, down0 = link.down_bytes;
    const std::uint64_t solves0 = shard_solve_counter();
    std::uint64_t fixes = 0;
    const auto start = Clock::now();
    for (std::size_t lap = 0; lap == 0 || s_since(start) < seconds; ++lap) {
      for (std::size_t k = 0; k < frames.size(); ++k) {
        const Frame& frame = frames[k];
        link.begin_fix();
        const auto t0 = Clock::now();
        Tracer::Span fix_span(tracer, "fix", k + 1);
        out.ledger.frames.attempted++;
        vp::FrameResult fr;
        {
          Tracer::Span s(tracer, "core.client_frame");
          fr = phone.process_frame(frame.image, 0.0, 0.0);
        }
        if (fr.status != vp::FrameResult::Status::kQueued || !fr.query) {
          out.ledger.frames.failed++;
          continue;
        }
        out.ledger.fixes.attempted++;
        vp::LocationResponse resp;
        bool ok = true;
        try {
          Tracer::Span s(tracer, "net.localize");
          resp = localizer.localize(*fr.query);
        } catch (const std::exception& ex) {
          ok = false;
          add_error(out, std::string("tour fix threw: ") + ex.what());
        }
        fix_span.close();
        const auto t1 = Clock::now();
        if (!ok || !resp.found) {
          out.ledger.fixes.failed++;
          continue;
        }
        ++fixes;
        p.fix_ms.push_back(ms_between(t0, t1));
        p.client_frame_ms.push_back(ms_between(t0, link.first_query_send));
        p.fix_error_m.push_back(resp.position.distance(frame.truth));
        p.centre_error_m.push_back(venue.centre().distance(frame.truth));
        for (const std::size_t bytes : link.query_sizes) {
          add_error(out, check_query_bytes(bytes, venue.place.size(),
                                           fr.query->features.size(), true));
        }
        if (lap == 0 && k < kSelectionChecks) {
          first_lap_selection[k] = fr.query->features;
        }
        if (traced) {
          layers.transport_ms.push_back(link.rtt_ms - link.handler_ms);
          replay_frame(tracer, layers, phone, frame.image, codebook);
          const double layer_ms =
              replay_query(tracer, layers, server, link.last_query,
                           args.seed + k);
          layers.unattributed_ms.push_back(link.handler_ms - layer_ms);
        }
      }
    }
    p.up = link.up_bytes - up0;
    p.down = link.down_bytes - down0;
    if (traced) {
      totals.fixes += fixes;
      totals.shard_solves += shard_solve_counter() - solves0;
    }
    tracer.set_enabled(false);
    return p;
  };

  const TourPass main_pass = pass(args.trace ? args.seconds / 2 : args.seconds,
                                  false);
  for (std::size_t k = 0; k < kSelectionChecks && k < frames.size(); ++k) {
    if (first_lap_selection[k].empty()) continue;
    add_error(out, verify_selection(phone, frames[k].image,
                                    first_lap_selection[k]));
  }
  add_error(out, check_fix_error(main_pass.fix_error_m, main_pass.centre_error_m,
                                 kBounds.fix_error_median_m,
                                 kBounds.centre_error_share));
  out.checked.set("fix_error_median_m", median(main_pass.fix_error_m), "m");
  out.checked.set("centre_error_median_m", median(main_pass.centre_error_m),
                  "m");
  out.ledger.stale_refreshes = localizer.stale_refreshes();

  if (!args.trace) {
    e2e.fix_ms = main_pass.fix_ms;
    e2e.fix_error_m = main_pass.fix_error_m;
    e2e.uplink_bytes = main_pass.up;
    e2e.downlink_bytes = main_pass.down;
    e2e.phone_oracle_bytes = static_cast<double>(phone.oracle_byte_size());
    e2e.server_map_bytes = server_map_bytes(server);
    out.metrics = e2e.metrics();
    out.workload_metrics.set("client_frame_ms_p50",
                             median(main_pass.client_frame_ms), "ms");
    set_fix_p90(out.workload_metrics, main_pass.fix_ms);
    return out;
  }

  const TourPass traced = pass(args.seconds / 2, true);
  tracer.set_enabled(true);
  for (int i = 0; i < 3; ++i) replay_download(tracer, layers, server, venue.place);
  replay_inserts(tracer, layers, venue.config.oracle, venue.insert_sample);
  tracer.set_enabled(false);
  if (layers.time_bound_hits != 0) {
    add_error(out, "a replayed pose solve hit the wall-clock bound");
  }
  const double recall = recall_at_1(layers.index_top1, layers.brute_top1);
  out.checked.set("index.recall_at_1", recall, "ratio");
  add_error(out, check_recall(recall, layers.index_top1.size(),
                              kBounds.recall_at_1_guard));
  if (layers.selected >= layers.keypoints) {
    add_error(out, "tour frames did not extract more keypoints than top_k");
  }
  totals.stale_refreshes = out.ledger.stale_refreshes;
  out.metrics = per_layer_metrics(tracer, layers, totals,
                                  quantile(main_pass.fix_ms, 0.5),
                                  quantile(traced.fix_ms, 0.5));
  write_trace_files(args, tracer);
  return out;
}

}  // namespace perfbench
