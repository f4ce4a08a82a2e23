// `lost`: raw (v2) queries that name no place, served across several
// venues. The server retrieves on every shard and solves once per shard,
// so index work and fan-out waste dominate; the raw wire format stays
// under measurement here.

#include "run_common.hpp"
#include "venue.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kQueriesPerVenue = 6;

struct LostPass {
  std::vector<double> fix_ms, fix_error_m;
  std::vector<double> centre_error_m;  ///< the room centre's, same fixes
  double up = 0, down = 0;
  std::size_t right_place = 0, fixes = 0;
};

}  // namespace

RunOutcome run_lost(const RunArgs& args) {
  RunOutcome out;
  Tracer tracer(args.trace);
  EndToEnd e2e;
  LedgerTotals totals;

  Site site = build_site({"office-a", "office-b", "office-c"},
                         args.seed, 0.0, tracer);
  for (const Venue& v : site.venues) {
    e2e.setup_s.push_back(v.setup_s);
    totals.ingest_rates.push_back(static_cast<double>(v.ingested) / v.ingest_s);
  }
  vp::VisualPrintServer& server = *site.server;

  // Queries: each venue's set-up phone selects its top-k against its own
  // oracle, then the query forgets where it was made: no place, no epoch.
  std::vector<Frame> frames;
  for (std::size_t v = 0; v < site.venues.size(); ++v) {
    auto f = render_frames(site.venues[v], v, kQueriesPerVenue, args.cores);
    for (auto& x : f) frames.push_back(std::move(x));
  }
  std::string prep_error;
  std::vector<PreparedQuery> prepared =
      prepare_queries(site, frames, kQueriesPerVenue, prep_error);
  add_error(out, prep_error);
  // The seed orders the queries; each round draws fresh frame ids (the
  // server's solver seed) from it, so a run's fixes average over solver
  // seeds instead of repeating one per query.
  std::vector<PreparedQuery> queries;
  for (const std::size_t i : seeded_order(prepared.size(), args.seed)) {
    PreparedQuery q = prepared[i];
    q.query.place.clear();
    q.query.oracle_epoch = 0;
    queries.push_back(std::move(q));
  }

  Link link(server, tracer);
  LayerCounts layers;

  // Whole rounds until `seconds` have gone by; a round sends every query
  // once, each from a phone that has just arrived lost (a fresh localizer
  // that has downloaded nothing).
  const auto pass = [&](double seconds, bool traced) {
    LostPass p;
    tracer.set_enabled(traced);
    const double up0 = link.up_bytes, down0 = link.down_bytes;
    const std::uint64_t solves0 = shard_solve_counter();
    const auto start = Clock::now();
    for (std::size_t round = 0; round == 0 || s_since(start) < seconds;
         ++round) {
      for (std::size_t j = 0; j < queries.size(); ++j) {
        PreparedQuery& pq = queries[j];
        pq.query.frame_id = static_cast<std::uint32_t>(
            mix_seed(args.seed, 300 + round * 1000 + j) & 0xffffffu);
        link.begin_fix();
        out.ledger.fixes.attempted++;
        const auto t0 = Clock::now();
        vp::RemoteLocalizer localizer(
            [&link](std::span<const std::uint8_t> req) { return link.send(req); });
        vp::LocationResponse resp;
        bool ok = true;
        try {
          Tracer::Span s(tracer, "fix", pq.query.frame_id);
          resp = localizer.localize(pq.query);
        } catch (const std::exception& ex) {
          ok = false;
          add_error(out, std::string("lost fix threw: ") + ex.what());
        }
        const auto t1 = Clock::now();
        if (!ok || !resp.found) {
          out.ledger.fixes.failed++;
          continue;
        }
        p.fix_ms.push_back(ms_between(t0, t1));
        const Venue& truth_venue = site.venues[pq.venue];
        ++p.fixes;
        // A fix in another venue is judged by the place share; its position
        // is in that venue's frame, so only right-venue fixes have an error.
        if (resp.place == truth_venue.place) {
          ++p.right_place;
          p.fix_error_m.push_back(resp.position.distance(pq.truth));
          p.centre_error_m.push_back(truth_venue.centre().distance(pq.truth));
        }
        for (const std::size_t bytes : link.query_sizes) {
          add_error(out, check_query_bytes(bytes, 0, pq.query.features.size(),
                                           false));
        }
        if (traced) {
          layers.transport_ms.push_back(link.rtt_ms - link.handler_ms);
          const double layer_ms = replay_query(tracer, layers, server,
                                               link.last_query,
                                               args.seed + pq.query.frame_id);
          layers.unattributed_ms.push_back(link.handler_ms - layer_ms);
        }
        out.ledger.stale_refreshes += localizer.stale_refreshes();
      }
    }
    p.up = link.up_bytes - up0;
    p.down = link.down_bytes - down0;
    if (traced) {
      totals.fixes += p.fixes;
      totals.shard_solves += shard_solve_counter() - solves0;
    }
    tracer.set_enabled(false);
    return p;
  };

  const LostPass main_pass =
      pass(args.trace ? args.seconds / 2 : args.seconds, false);
  add_error(out, check_place_share(main_pass.right_place, main_pass.fixes,
                                   kBounds.lost_place_share));
  out.checked.set("lost.right_place_share",
                  main_pass.fixes > 0 ? static_cast<double>(main_pass.right_place) /
                                            static_cast<double>(main_pass.fixes)
                                      : 0.0,
                  "ratio");
  add_error(out, check_fix_error(main_pass.fix_error_m, main_pass.centre_error_m,
                                 kBounds.fix_error_median_m,
                                 kBounds.centre_error_share));
  out.checked.set("fix_error_median_m", median(main_pass.fix_error_m), "m");
  out.checked.set("centre_error_median_m", median(main_pass.centre_error_m),
                  "m");

  if (!args.trace) {
    e2e.fix_ms = main_pass.fix_ms;
    e2e.fix_error_m = main_pass.fix_error_m;
    e2e.uplink_bytes = main_pass.up;
    e2e.downlink_bytes = main_pass.down;
    // The lost phone carries the oracles it selected its keypoints with.
    e2e.phone_oracle_bytes =
        static_cast<double>(site.venues[0].phone->oracle_byte_size());
    e2e.server_map_bytes = server_map_bytes(server);
    out.metrics = e2e.metrics();
    set_fix_p90(out.workload_metrics, main_pass.fix_ms);
    return out;
  }

  const LostPass traced = pass(args.seconds / 2, true);
  tracer.set_enabled(true);
  // The client and download layers do not run in a lost fix; they are
  // replayed on the frames the queries came from, for the full table.
  for (std::size_t v = 0; v < site.venues.size(); ++v) {
    Venue& venue = site.venues[v];
    const auto shard = server.store().snapshot(venue.place);
    replay_frame(tracer, layers, *venue.phone,
                 frames[v * kQueriesPerVenue].image,
                 shard ? &shard->index.pq_codebook() : nullptr);
    replay_download(tracer, layers, server, venue.place);
    replay_inserts(tracer, layers, venue.config.oracle, venue.insert_sample);
  }
  tracer.set_enabled(false);
  if (layers.time_bound_hits != 0) {
    add_error(out, "a replayed pose solve hit the wall-clock bound");
  }
  const double recall = recall_at_1(layers.index_top1, layers.brute_top1);
  out.checked.set("index.recall_at_1", recall, "ratio");
  add_error(out, check_recall(recall, layers.index_top1.size(),
                              kBounds.recall_at_1_guard));
  totals.stale_refreshes = out.ledger.stale_refreshes;
  out.metrics = per_layer_metrics(tracer, layers, totals,
                                  quantile(main_pass.fix_ms, 0.5),
                                  quantile(traced.fix_ms, 0.5));
  write_trace_files(args, tracer);
  return out;
}

}  // namespace perfbench
