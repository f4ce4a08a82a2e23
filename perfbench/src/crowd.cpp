// `crowd`: phones arrive at several venues over TCP loopback. The server
// runs TcpListener::serve on a pool; each phone is one thread with one
// RetryingClient per arrival. An arrival downloads its venue's oracle and
// codebook, then sends pre-built compact queries (closed loop: the next
// query goes when the previous fix returns). One writer publishes fresh
// wardrive batches beside the reads; every publish bumps the venue's epoch
// and forces stale-oracle refreshes. SIFT does nothing here:
// the load is the server, net, and the write side of core/hashing/index.
// Traffic crosses loopback, not a real link.
#include <map>
#include <thread>
#include <unordered_map>

#include "net/retry.hpp"
#include "net/tcp.hpp"
#include "run_common.hpp"
#include "util/thread_pool.hpp"
#include "venue.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kQueriesPerVenue = 6;  ///< sent by every arrival
constexpr double kPublishInterval = 2.0;     ///< seconds between publishes
constexpr double kHeldBack = 0.15;           ///< share kept for publishes
/// Each venue's held-back share is cut into this many batches, each
/// published once: enough for 24 s of publishing, after which the writer
/// has nothing new and stops.
constexpr std::size_t kBatchesPerVenue = 4;
constexpr std::size_t kReferenceChecks = 6;

struct FixRecord {
  std::size_t venue = 0;
  std::uint32_t epoch = 0;  ///< oracle epoch stamped on the answered query
  vp::Bytes request;        ///< encoded query, tag byte excluded
  vp::LocationResponse response;
  Clock::time_point start, end;
};

/// When a publish ran, and to which venue.
struct PublishSpan {
  std::size_t venue = 0;
  Clock::time_point start, end;
};

/// What one phone thread measured; merged after the threads join.
struct PhoneLog {
  std::vector<double> fix_ms, first_fix_ms, fix_error_m;
  std::vector<double> centre_error_m;  ///< the room centre's, same fixes
  std::vector<double> transport_ms;
  std::vector<FixRecord> records;
  std::vector<std::string> errors;
  OpCount fixes, downloads;
  double up = 0, down = 0;
  std::uint64_t retries = 0, sheds = 0, stale_refreshes = 0;
  double oracle_bytes = 0;
};

struct CrowdPass {
  std::vector<double> fix_ms, first_fix_ms, fix_error_m;
  std::vector<double> centre_error_m;
  double wall_s = 0, up = 0, down = 0;
  double oracle_bytes = 0;
  std::vector<FixRecord> records;
};

using PinKey = std::pair<std::size_t, std::uint32_t>;  // (venue, epoch)

}  // namespace

RunOutcome run_crowd(const RunArgs& args) {
  RunOutcome out;
  Tracer tracer(args.trace);
  EndToEnd e2e;
  LedgerTotals totals;

  Site site = build_site({"office-a", "office-b", "office-c"},
                         args.seed, kHeldBack, tracer);
  for (const Venue& v : site.venues) {
    e2e.setup_s.push_back(v.setup_s);
    totals.ingest_rates.push_back(static_cast<double>(v.ingested) / v.ingest_s);
  }
  vp::VisualPrintServer& server = *site.server;
  const std::size_t venues = site.venues.size();

  std::vector<Frame> frames;
  for (std::size_t v = 0; v < venues; ++v) {
    auto f = render_frames(site.venues[v], v, kQueriesPerVenue, args.cores);
    for (auto& x : f) frames.push_back(std::move(x));
  }
  std::string prep_error;
  const std::vector<PreparedQuery> prepared =
      prepare_queries(site, frames, kQueriesPerVenue, prep_error);
  add_error(out, prep_error);
  if (prepared.size() != frames.size()) {
    out.metrics = e2e.metrics();
    return out;
  }

  // Thread budget: phones plus the writer use at most `cores` threads; the
  // server pool is no larger than `cores` either. On one CPU the single
  // phone thread also makes the publishes, between its fixes.
  const std::size_t phones = std::max<unsigned>(1, args.cores - 1);
  const bool writer_thread = args.cores >= 2;
  vp::ThreadPool server_pool(std::max<unsigned>(1, args.cores));
  vp::TcpListener listener(0);
  const std::uint16_t port = listener.port();

  std::mutex handler_mu;  ///< guards handler_ms
  std::unordered_map<std::uint64_t, double> handler_ms;
  std::atomic<bool> serving{true};
  vp::ServeOptions serve_opts;
  serve_opts.pool = &server_pool;
  serve_opts.max_connections = phones + 2;
  serve_opts.io_timeout_ms = 60'000;
  std::thread server_thread([&] {
    listener.serve(
        [&](std::span<const std::uint8_t> req) {
          const bool query = !req.empty() && req[0] == vp::kQueryRequest;
          const auto t0 = Clock::now();
          vp::Bytes reply;
          {
            Tracer::Span s(tracer, query ? "core.handler" : "core.oracle_handler");
            reply = server.handle_request(req, Link::kSolverSeed);
          }
          if (query && tracer.enabled()) {
            const double ms = ms_between(t0, Clock::now());
            std::lock_guard lock(handler_mu);
            handler_ms[fnv1a(req.data(), req.size())] = ms;
          }
          return reply;
        },
        [&] { return serving.load(); }, serve_opts);
  });
  // Stops and joins the server on every way out of this function.
  struct ServerStop {
    std::atomic<bool>& serving;
    std::thread& thread;
    ~ServerStop() {
      serving = false;
      if (thread.joinable()) thread.join();
    }
  } server_stop{serving, server_thread};

  std::map<PinKey, std::shared_ptr<const vp::PlaceShard>> pins;
  std::vector<PublishSpan> publish_spans;
  std::size_t publishes_made = 0;
  LayerCounts layers;

  const auto pass = [&](double seconds, bool traced) {
    CrowdPass p;
    tracer.set_enabled(traced);
    for (std::size_t v = 0; v < venues; ++v) {
      auto snap = server.store().snapshot(site.venues[v].place);
      pins[{v, snap->epoch}] = snap;
    }
    const std::uint64_t solves0 = shard_solve_counter();
    std::vector<PhoneLog> logs(phones);
    const auto start = Clock::now();

    // The writer: one publish every kPublishInterval seconds, round-robin
    // over the venues, each the next unpublished held-back batch of that
    // venue's wardrive, until every batch is in.
    const std::size_t n_publishes = std::min(
        static_cast<std::size_t>(seconds / kPublishInterval),
        venues * kBatchesPerVenue - publishes_made);
    const auto due = [&](std::size_t i) {
      return start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             (static_cast<double>(i) + 0.5) * kPublishInterval));
    };
    const auto publish = [&] {
      const std::size_t n = publishes_made++;
      const std::size_t v = n % venues;
      const Venue& venue = site.venues[v];
      const std::size_t chunk = n / venues;
      const std::size_t per = venue.held_back.size() / kBatchesPerVenue;
      const std::span<const vp::KeypointMapping> batch(
          venue.held_back.data() + chunk * per, per);
      const auto before = server.store().snapshot(venue.place);
      out.ledger.publishes.attempted++;
      const auto t0 = Clock::now();
      try {
        Tracer::Span s(tracer, "core.publish");
        server.ingest_wardrive(venue.place, batch);
        publish_spans.push_back({v, t0, Clock::now()});
      } catch (const std::exception& ex) {
        out.ledger.publishes.failed++;
        add_error(out, std::string("publish threw: ") + ex.what());
        return;
      }
      const auto after = server.store().snapshot(venue.place);
      add_error(out, check_publish(before->stored.size(), after->stored.size(),
                                   batch.size(), before->epoch, after->epoch));
      pins[{v, after->epoch}] = after;
      if (traced) {
        std::vector<vp::Descriptor> descriptors;
        for (const auto& m : batch) descriptors.push_back(m.feature.descriptor);
        replay_inserts(tracer, layers, venue.config.oracle, descriptors);
      }
    };
    // Touched by one thread only: the writer, or on one CPU phone 0.
    std::size_t next_publish = 0;
    const auto publish_due = [&] {
      while (next_publish < n_publishes && Clock::now() >= due(next_publish)) {
        ++next_publish;
        publish();
      }
    };
    const auto publish_rest = [&] {
      try {
        for (; next_publish < n_publishes; ++next_publish) {
          std::this_thread::sleep_until(due(next_publish));
          publish();
        }
      } catch (const std::exception& ex) {
        add_error(out, std::string("writer threw: ") + ex.what());
      }
    };

    const auto phone_arrivals = [&](std::size_t id) {
      PhoneLog& log = logs[id];
      for (std::size_t a = 0; a == 0 || s_since(start) < seconds; ++a) {
        const std::size_t v = (id + a + args.seed) % venues;
        const std::string& place = site.venues[v].place;
        const auto arrive = Clock::now();
        vp::RetryPolicy policy;
        policy.io_timeout_ms = 60'000;
        policy.connect_timeout_ms = 5'000;
        vp::RetryingClient rc("127.0.0.1", port, policy,
                              mix_seed(args.seed, 1000 + id * 100 + a));
        vp::VisualPrintClient client(phone_config(),
                                     mix_seed(args.seed, 2000 + id));
        // Per-fix transport accounting, as Link keeps it in-process.
        std::vector<std::size_t> sizes;
        vp::Bytes last_query;
        const auto transport = [&](std::span<const std::uint8_t> req) {
          const bool query = !req.empty() && req[0] == vp::kQueryRequest;
          if (query) {
            sizes.push_back(req.size() - 1);
            last_query.assign(req.begin() + 1, req.end());
          } else {
            log.downloads.attempted++;
          }
          const std::uint64_t attempts0 = rc.stats().attempts;
          const auto t0 = Clock::now();
          vp::Bytes reply;
          try {
            Tracer::Span s(tracer, query ? "net.rtt" : "net.oracle_rtt");
            reply = rc.request(req);
          } catch (...) {
            log.up += query ? static_cast<double>(req.size() - 1) *
                                  static_cast<double>(rc.stats().attempts - attempts0)
                            : 0.0;
            throw;
          }
          const double rtt = ms_between(t0, Clock::now());
          log.down += static_cast<double>(reply.size());
          if (query) {
            log.up += static_cast<double>(req.size() - 1) *
                      static_cast<double>(rc.stats().attempts - attempts0);
            if (tracer.enabled()) {
              std::lock_guard lock(handler_mu);
              const auto it = handler_ms.find(fnv1a(req.data(), req.size()));
              if (it != handler_ms.end()) log.transport_ms.push_back(rtt - it->second);
            }
          }
          return reply;
        };
        vp::RemoteLocalizer loc(transport);
        loc.enable_compact_uplink();
        loc.on_oracle_refresh([&](const vp::OracleDownload& d) {
          Tracer::Span s(tracer, "net.oracle_install");
          client.install_oracle(d);
        });
        try {
          loc.fetch_oracle(place);
        } catch (const std::exception& ex) {
          log.downloads.failed++;
          log.errors.push_back(std::string("oracle download threw: ") + ex.what());
          continue;
        }
        const auto order = seeded_order(kQueriesPerVenue, mix_seed(args.seed, a * 64 + id));
        for (std::size_t n = 0; n < kQueriesPerVenue; ++n) {
          const std::size_t k = order[n];
          vp::FingerprintQuery q = prepared[v * kQueriesPerVenue + k].query;
          // Distinct per arrival and phone: the frame id seeds the server's
          // pose solve, so every fix is a solve of its own.
          q.frame_id = static_cast<std::uint32_t>(
              ((mix_seed(args.seed, 400 + a * 1000 + v * 100 + k) & 0xfffffu)
               << 4) |
              (id & 15u));
          q.oracle_epoch = client.oracle_epoch();
          sizes.clear();
          log.fixes.attempted++;
          const auto t0 = Clock::now();
          vp::LocationResponse resp;
          try {
            Tracer::Span s(tracer, "fix", q.frame_id);
            resp = loc.localize(q);
          } catch (const std::exception& ex) {
            log.fixes.failed++;
            log.errors.push_back(std::string("crowd fix threw: ") + ex.what());
            continue;
          }
          const auto t1 = Clock::now();
          if (!resp.found) {
            log.fixes.failed++;
            continue;
          }
          log.fix_ms.push_back(ms_between(t0, t1));
          if (n == 0) log.first_fix_ms.push_back(ms_between(arrive, t1));
          const vp::Vec3 truth = prepared[v * kQueriesPerVenue + k].truth;
          log.fix_error_m.push_back(resp.position.distance(truth));
          log.centre_error_m.push_back(site.venues[v].centre().distance(truth));
          for (const std::size_t bytes : sizes) {
            const std::string e =
                check_query_bytes(bytes, place.size(), q.features.size(), true);
            if (!e.empty()) log.errors.push_back(e);
          }
          const std::uint32_t epoch =
              vp::FingerprintQuery::decode(last_query).oracle_epoch;
          log.records.push_back({v, epoch, last_query, resp, t0, t1});
          if (id == 0 && !writer_thread) publish_due();
        }
        log.oracle_bytes = static_cast<double>(client.oracle_byte_size());
        log.retries += rc.stats().retries;
        log.sheds += rc.stats().overloaded;
        log.stale_refreshes += loc.stale_refreshes();
      }
    };

    const auto phone_main = [&](std::size_t id) {
      try {
        phone_arrivals(id);
      } catch (const std::exception& ex) {
        logs[id].errors.push_back(std::string("phone thread threw: ") + ex.what());
      }
      if (id == 0 && !writer_thread) publish_rest();
    };

    std::vector<std::thread> threads;
    for (std::size_t id = 0; id < phones; ++id) threads.emplace_back(phone_main, id);
    std::thread writer;
    if (writer_thread) writer = std::thread(publish_rest);
    for (auto& t : threads) t.join();
    p.wall_s = s_since(start);
    if (writer.joinable()) writer.join();

    for (PhoneLog& log : logs) {
      p.fix_ms.insert(p.fix_ms.end(), log.fix_ms.begin(), log.fix_ms.end());
      p.first_fix_ms.insert(p.first_fix_ms.end(), log.first_fix_ms.begin(),
                            log.first_fix_ms.end());
      p.fix_error_m.insert(p.fix_error_m.end(), log.fix_error_m.begin(),
                           log.fix_error_m.end());
      p.centre_error_m.insert(p.centre_error_m.end(), log.centre_error_m.begin(),
                              log.centre_error_m.end());
      for (auto& r : log.records) p.records.push_back(std::move(r));
      for (const auto& e : log.errors) add_error(out, e);
      layers.transport_ms.insert(layers.transport_ms.end(),
                                 log.transport_ms.begin(), log.transport_ms.end());
      out.ledger.fixes.attempted += log.fixes.attempted;
      out.ledger.fixes.failed += log.fixes.failed;
      out.ledger.downloads.attempted += log.downloads.attempted;
      out.ledger.downloads.failed += log.downloads.failed;
      out.ledger.retries += log.retries;
      out.ledger.sheds += log.sheds;
      out.ledger.stale_refreshes += log.stale_refreshes;
      p.up += log.up;
      p.down += log.down;
      p.oracle_bytes = std::max(p.oracle_bytes, log.oracle_bytes);
    }
    if (traced) {
      totals.fixes += p.fix_ms.size();
      totals.shard_solves += shard_solve_counter() - solves0;
    }
    tracer.set_enabled(false);
    return p;
  };

  const CrowdPass main_pass =
      pass(args.trace ? args.seconds / 2 : args.seconds, false);
  CrowdPass traced;
  if (args.trace) traced = pass(args.seconds / 2, true);

  add_error(out, check_fix_error(main_pass.fix_error_m, main_pass.centre_error_m,
                                 kBounds.fix_error_median_m,
                                 kBounds.centre_error_share));
  out.checked.set("fix_error_median_m", median(main_pass.fix_error_m), "m");
  out.checked.set("centre_error_median_m", median(main_pass.centre_error_m),
                  "m");

  // Concurrency must not change answers: a reply equals the reply the same
  // request gets when served alone by a fresh server holding only the
  // pinned map of the epoch stamped on the query. Replies spread over the
  // run are judged so. A fix that overlapped a publish to its venue is
  // passed over for the next one: the server checks the query's epoch
  // before it takes its map, so such a fix may be answered against either
  // epoch.
  const auto overlapped_publish = [&](const FixRecord& r) {
    for (const PublishSpan& ps : publish_spans) {
      if (ps.venue == r.venue && ps.start < r.end && r.start < ps.end) return true;
    }
    return false;
  };
  const auto check_alone = [&](const FixRecord& r) {
    const auto pin = pins.find({r.venue, r.epoch});
    if (pin == pins.end()) {
      add_error(out, "no map snapshot for the epoch a reply was stamped with");
      return;
    }
    vp::VisualPrintServer alone(site.venues[r.venue].config);
    alone.store().restore_shard(std::make_unique<vp::PlaceShard>(*pin->second));
    vp::Bytes req{vp::kQueryRequest};
    req.insert(req.end(), r.request.begin(), r.request.end());
    const vp::Bytes reply = alone.handle_request(req, Link::kSolverSeed);
    if (vp::is_error_frame(reply)) {
      add_error(out, "the reference server refused a recorded query");
      return;
    }
    add_error(out, check_same_reply(r.response, vp::LocationResponse::decode(reply)));
  };
  const std::vector<FixRecord>& records = main_pass.records;
  std::size_t served_alone = 0;
  for (std::size_t j = 0; j < kReferenceChecks && !records.empty(); ++j) {
    for (std::size_t k = j * records.size() / kReferenceChecks;
         k < (j + 1) * records.size() / kReferenceChecks; ++k) {
      if (overlapped_publish(records[k])) continue;
      check_alone(records[k]);
      ++served_alone;
      break;
    }
  }
  out.checked.set("crowd.replies_served_alone",
                  static_cast<double>(served_alone), "count");
  if (served_alone == 0) add_error(out, "no reply could be served alone");

  if (!args.trace) {
    e2e.fix_ms = main_pass.fix_ms;
    e2e.fix_error_m = main_pass.fix_error_m;
    e2e.uplink_bytes = main_pass.up;
    e2e.downlink_bytes = main_pass.down;
    e2e.phone_oracle_bytes = main_pass.oracle_bytes;
    e2e.server_map_bytes = server_map_bytes(server);
    out.metrics = e2e.metrics();
    out.workload_metrics.set("first_fix_ms_p50", median(main_pass.first_fix_ms),
                             "ms");
    out.workload_metrics.set(
        "fixes_per_s",
        static_cast<double>(main_pass.fix_ms.size()) / main_pass.wall_s, "1/s");
    set_fix_p90(out.workload_metrics, main_pass.fix_ms);
    return out;
  }

  // Per-layer replays of what the traced pass served.
  tracer.set_enabled(true);
  {
    std::map<std::uint64_t, const FixRecord*> seen;
    for (const FixRecord& r : traced.records) {
      seen.emplace(fnv1a(r.request.data(), r.request.size()), &r);
    }
    std::size_t replayed = 0;
    for (const auto& [h, r] : seen) {
      if (replayed++ >= 18) break;
      vp::Bytes req{vp::kQueryRequest};
      req.insert(req.end(), r->request.begin(), r->request.end());
      double handler = 0;
      {
        std::lock_guard lock(handler_mu);
        const auto it = handler_ms.find(fnv1a(req.data(), req.size()));
        if (it != handler_ms.end()) handler = it->second;
      }
      const double layer_ms =
          replay_query(tracer, layers, server, r->request, args.seed + h % 97);
      if (handler > 0) layers.unattributed_ms.push_back(handler - layer_ms);
    }
  }
  for (std::size_t v = 0; v < venues; ++v) {
    Venue& venue = site.venues[v];
    const auto shard = server.store().snapshot(venue.place);
    replay_frame(tracer, layers, *venue.phone, frames[v * kQueriesPerVenue].image,
                 shard ? &shard->index.pq_codebook() : nullptr);
    replay_download(tracer, layers, server, venue.place);
  }
  tracer.set_enabled(false);
  if (layers.time_bound_hits != 0) {
    add_error(out, "a replayed pose solve hit the wall-clock bound");
  }
  const double recall = recall_at_1(layers.index_top1, layers.brute_top1);
  out.checked.set("index.recall_at_1", recall, "ratio");
  add_error(out, check_recall(recall, layers.index_top1.size(),
                              kBounds.recall_at_1_guard));
  totals.retries = out.ledger.retries;
  totals.sheds = out.ledger.sheds;
  totals.stale_refreshes = out.ledger.stale_refreshes;
  out.metrics = per_layer_metrics(tracer, layers, totals,
                                  quantile(main_pass.fix_ms, 0.5),
                                  quantile(traced.fix_ms, 0.5));
  write_trace_files(args, tracer);
  return out;
}

}  // namespace perfbench
