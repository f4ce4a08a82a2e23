// Admission-control and load-harness battery: the AdmissionGate's
// accounting invariants under seeded concurrent bursts (the properties
// DESIGN.md §13 promises: inflight never exceeds the cap, every offer is
// admitted or shed exactly once, every shed request still gets exactly one
// structured reply), VisualPrintServer's shed path in-process and over
// sockets, and the determinism contract of the bench_load smoke ledger.
// TSan-clean by construction (scripts/tier1.sh runs this suite under
// -DVP_SANITIZE=thread).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "core/server.hpp"
#include "net/admission.hpp"
#include "net/loadgen.hpp"
#include "net/retry.hpp"
#include "net/tcp.hpp"
#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace vp {
namespace {

TEST(Admission, GateAdmitsUpToCapAndCountsEveryOutcome) {
  AdmissionGate gate(2);
  EXPECT_EQ(gate.max_inflight(), 2u);
  EXPECT_TRUE(gate.try_enter());
  EXPECT_TRUE(gate.try_enter());
  EXPECT_EQ(gate.inflight(), 2u);
  EXPECT_FALSE(gate.try_enter());  // at cap: shed
  EXPECT_FALSE(gate.try_enter());
  gate.exit();
  EXPECT_TRUE(gate.try_enter());  // slot freed: admitted again
  gate.exit();
  gate.exit();
  EXPECT_EQ(gate.inflight(), 0u);
  EXPECT_EQ(gate.admitted(), 3u);
  EXPECT_EQ(gate.shed(), 2u);
  EXPECT_EQ(gate.peak_inflight(), 2u);
  EXPECT_DOUBLE_EQ(gate.shed_rate(), 2.0 / 5.0);
}

TEST(Admission, ZeroCapAdmitsEverything) {
  AdmissionGate unlimited(0);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(unlimited.try_enter());
  EXPECT_EQ(unlimited.admitted(), 100u);
  EXPECT_EQ(unlimited.shed(), 0u);
  for (int i = 0; i < 100; ++i) unlimited.exit();
  {
    const AdmissionTicket ticket(unlimited);
    EXPECT_TRUE(ticket.admitted());
    EXPECT_EQ(unlimited.inflight(), 1u);
  }
  EXPECT_EQ(unlimited.inflight(), 0u);  // the ticket released its slot
}

// The §13 property test: seeded concurrent bursts against one gate. Every
// try_enter must resolve to exactly one of admitted/shed, the inflight
// count may never exceed the cap at any instant (checked via both the
// gate's own peak tracker and each thread's observations), and the gate
// must drain to zero.
TEST(Admission, InvariantsHoldUnderSeededConcurrentBursts) {
  constexpr std::size_t kCap = 3;
  constexpr int kThreads = 8;
  constexpr int kRounds = 400;
  AdmissionGate gate(kCap);

  std::atomic<std::uint64_t> offered{0};
  std::atomic<std::uint64_t> observed_admitted{0};
  std::atomic<std::uint64_t> observed_shed{0};
  std::vector<std::size_t> max_seen_inflight(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(9000 + static_cast<std::uint64_t>(t));
      for (int r = 0; r < kRounds; ++r) {
        // A seeded burst of 1..4 simultaneous offers. Bursts can exceed the
        // cap on their own (4 > 3), so sheds occur under any scheduling —
        // including a single-core box where threads barely interleave.
        const std::uint64_t burst = 1 + rng.uniform_u64(4);
        std::size_t held = 0;
        for (std::uint64_t b = 0; b < burst; ++b) {
          offered.fetch_add(1, std::memory_order_relaxed);
          if (gate.try_enter()) {
            ++held;
            observed_admitted.fetch_add(1, std::memory_order_relaxed);
          } else {
            observed_shed.fetch_add(1, std::memory_order_relaxed);
          }
          const std::size_t seen = gate.inflight();
          max_seen_inflight[static_cast<std::size_t>(t)] =
              std::max(max_seen_inflight[static_cast<std::size_t>(t)], seen);
        }
        // Hold the burst across a reschedule point so other threads offer
        // against a partially full gate.
        std::this_thread::yield();
        for (std::size_t h = 0; h < held; ++h) gate.exit();
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_GE(offered.load(), static_cast<std::uint64_t>(kThreads * kRounds));
  // Conservation: every offer resolved exactly once, and the gate's own
  // ledger agrees with what the callers observed.
  EXPECT_EQ(gate.admitted() + gate.shed(), offered.load());
  EXPECT_EQ(gate.admitted(), observed_admitted.load());
  EXPECT_EQ(gate.shed(), observed_shed.load());
  // The cap is a hard bound at every instant, not on average.
  EXPECT_LE(gate.peak_inflight(), kCap);
  for (const std::size_t seen : max_seen_inflight) EXPECT_LE(seen, kCap);
  // Fully drained: no ticket leaked a slot.
  EXPECT_EQ(gate.inflight(), 0u);
  // With 8 threads hammering a cap of 3, both outcomes must occur.
  EXPECT_GT(gate.admitted(), 0u);
  EXPECT_GT(gate.shed(), 0u);
}

TEST(Admission, CapIsAdjustableAtRuntime) {
  AdmissionGate gate(1);
  EXPECT_TRUE(gate.try_enter());
  EXPECT_FALSE(gate.try_enter());
  gate.set_max_inflight(2);  // raise live
  EXPECT_TRUE(gate.try_enter());
  gate.set_max_inflight(1);  // shrink below current inflight
  EXPECT_FALSE(gate.try_enter());  // sheds until it drains below the cap
  gate.exit();
  gate.exit();
  EXPECT_EQ(gate.inflight(), 0u);
  gate.set_max_inflight(0);
  EXPECT_TRUE(gate.try_enter());  // unlimited again
  gate.exit();
}

/// A few co-located synthetic keypoints: enough for retrieval to match
/// (queries reuse the stored descriptors) and for the cluster filter to
/// accept, with a tiny solver budget so served queries stay cheap.
std::vector<KeypointMapping> soak_mappings(Rng& rng, std::size_t n) {
  std::vector<KeypointMapping> ms;
  ms.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Feature f;
    f.keypoint = {8.0f + static_cast<float>(i % 13), 6.0f, 2.0f, 0.0f, 1.0f,
                  0};
    for (auto& v : f.descriptor) {
      v = static_cast<std::uint8_t>(rng.uniform_u64(60));
    }
    ms.push_back({f,
                  {10.0 + rng.uniform(-0.4, 0.4), 10.0 + rng.uniform(-0.4, 0.4),
                   1.0 + rng.uniform(-0.2, 0.2)},
                  static_cast<std::uint32_t>(i)});
  }
  return ms;
}

ServerConfig soak_config() {
  ServerConfig cfg;
  cfg.localize.search_lo = {5, 5, -2};
  cfg.localize.search_hi = {15, 15, 4};
  cfg.localize.refine_rounds = 0;
  cfg.localize.de.population = 12;
  cfg.localize.de.max_generations = 6;
  cfg.localize.de.time_budget_sec = 0.01;
  return cfg;
}

// The VisualPrintServer sheds *queries only*: with the gate held at
// capacity a 'Q' request returns a structured kOverloaded, while stats
// scrapes and oracle downloads are still served — an overloaded server
// must stay observable.
TEST(Admission, ServerShedsQueriesButServesStatsAndOracle) {
  ServerConfig cfg = soak_config();
  VisualPrintServer server(cfg);
  Rng rng(41);
  const auto mappings = soak_mappings(rng, 40);
  server.ingest_wardrive(mappings);
  server.set_max_inflight(1);

  FingerprintQuery q;
  q.frame_id = 5;
  for (std::size_t i = 0; i < 20; ++i) q.features.push_back(mappings[i].feature);
  ByteWriter w;
  w.u8(kQueryRequest);
  w.raw(q.encode());
  const Bytes query_frame = w.take();

  ASSERT_TRUE(server.admission().try_enter());  // hold the only slot

  const Bytes shed_reply = server.handle_request(query_frame, 7);
  ASSERT_TRUE(is_error_frame(shed_reply));
  const ErrorResponse err = ErrorResponse::decode(shed_reply);
  EXPECT_EQ(err.code, ErrorResponse::kOverloaded);

  // Observability survives overload: stats and oracle bypass the gate.
  ByteWriter sw;
  sw.u8(kStatsRequest);
  sw.raw(StatsRequest{}.encode());
  const Bytes stats_reply = server.handle_request(sw.take(), 7);
  EXPECT_FALSE(is_error_frame(stats_reply));
  const Bytes oracle_reply = server.handle_request(Bytes{kOracleRequest}, 7);
  EXPECT_FALSE(is_error_frame(oracle_reply));

  server.admission().exit();  // drain

  const Bytes served_reply = server.handle_request(query_frame, 7);
  ASSERT_FALSE(is_error_frame(served_reply));
  const LocationResponse resp = LocationResponse::decode(served_reply);
  EXPECT_TRUE(resp.found);

  EXPECT_EQ(server.admission().shed(), 1u);
  // try_enter above + the served query both count as admissions.
  EXPECT_EQ(server.admission().admitted(), 2u);
  EXPECT_EQ(server.admission().inflight(), 0u);
}

// Shedding over real sockets: a VisualPrintServer behind serve() with its
// query gate at cap 1. While the only slot is held, every query is answered
// with exactly one structured kOverloaded on its own live connection; a
// client that refuses overload retries sees the shed as terminal, and the
// same connection is served once the slot drains.
TEST(Admission, ServeShedsBeyondGateCapWithStructuredReplies) {
  ServerConfig cfg = soak_config();
  VisualPrintServer server(cfg);
  Rng rng(43);
  const auto mappings = soak_mappings(rng, 40);
  server.ingest_wardrive(mappings);
  server.set_max_inflight(1);

  FingerprintQuery q;
  q.frame_id = 3;
  for (std::size_t i = 0; i < 20; ++i) q.features.push_back(mappings[i].feature);
  ByteWriter w;
  w.u8(kQueryRequest);
  w.raw(q.encode());
  const Bytes query_frame = w.take();

  ThreadPool pool(4);
  TcpListener listener(0);
  ServeOptions options;
  options.pool = &pool;
  options.max_connections = 8;
  options.io_timeout_ms = 5000;
  options.poll_interval_ms = 5;
  ServeStats stats;
  std::atomic<bool> run{true};
  std::thread serve_thread([&] {
    listener.serve(
        [&](std::span<const std::uint8_t> req) {
          return server.handle_request(req, 7);
        },
        [&] { return run.load(); }, options, &stats);
  });

  ASSERT_TRUE(server.admission().try_enter());  // hold the only slot

  std::vector<std::unique_ptr<RetryingClient>> clients;
  for (int i = 0; i < 2; ++i) {
    RetryPolicy p;
    p.max_attempts = 3;
    p.retry_overloaded = false;
    p.io_timeout_ms = 5000;
    p.connect_timeout_ms = 2000;
    clients.push_back(
        std::make_unique<RetryingClient>("127.0.0.1", listener.port(), p));
    RetryingClient& net = *clients.back();
    try {
      net.request(query_frame);
      ADD_FAILURE() << "expected kOverloaded";
    } catch (const RemoteError& e) {
      EXPECT_EQ(e.code(), ErrorResponse::kOverloaded);
    }
    EXPECT_EQ(net.stats().attempts, 1u);  // shed is terminal, not retried
    EXPECT_EQ(net.stats().overloaded, 1u);
    EXPECT_TRUE(net.connected());  // the shed reply kept the connection
  }

  server.admission().exit();  // drain

  for (const auto& net : clients) {
    const Bytes reply = net->request(query_frame);
    ASSERT_FALSE(is_error_frame(reply));
    EXPECT_TRUE(LocationResponse::decode(reply).found);
    EXPECT_EQ(net->stats().reconnects, 1u);  // same connection as the shed
  }

  clients.clear();
  run.store(false);
  serve_thread.join();
  EXPECT_EQ(server.admission().shed(), 2u);
  // try_enter above + the two served queries.
  EXPECT_EQ(server.admission().admitted(), 3u);
  EXPECT_EQ(stats.handler_errors.load(), 0u);
  EXPECT_EQ(stats.responses.load(), 4u);  // every request got one reply
}

// Overload-recovery soak over real sockets: saturate a pooled server past
// its admission cap, assert every excess request is shed with a structured
// kOverloaded (never a timeout or torn frame), then drop the load and
// assert goodput and fix accuracy return to the unloaded baseline.
TEST(Admission, OverloadSoakShedsCleanlyAndRecovers) {
  ServerConfig cfg = soak_config();
  VisualPrintServer server(cfg);
  Rng rng(42);
  const auto mappings = soak_mappings(rng, 60);
  server.ingest_wardrive(mappings);
  server.set_max_inflight(2);

  FingerprintQuery q;
  q.frame_id = 9;
  for (std::size_t i = 0; i < 20; ++i) q.features.push_back(mappings[i].feature);
  ByteWriter w;
  w.u8(kQueryRequest);
  w.raw(q.encode());

  ThreadPool pool(8);
  TcpListener listener(0);
  ServeOptions options;
  options.pool = &pool;
  options.max_connections = 16;
  options.io_timeout_ms = 10'000;
  options.poll_interval_ms = 5;
  std::atomic<bool> run{true};
  std::thread serve_thread([&] {
    listener.serve(
        [&](std::span<const std::uint8_t> req) {
          return server.handle_request(req, 7);
        },
        [&] { return run.load(); }, options);
  });

  load::Workload base;
  base.port = listener.port();
  base.payloads = {w.take()};
  base.seed = 77;
  base.client.policy.io_timeout_ms = 10'000;
  base.client.policy.connect_timeout_ms = 5000;
  base.client.policy.retry_overloaded = false;  // count sheds, don't hide them

  // Baseline: one client never reaches the cap of 2 — everything served.
  load::Workload unloaded = base;
  unloaded.clients = 1;
  unloaded.client.requests = 12;
  const load::LoadReport before = load::run_closed_loop(unloaded);
  ASSERT_EQ(before.served(), before.offered());
  ASSERT_EQ(before.shed(), 0u);
  ASSERT_EQ(before.errors(), 0u);
  const double baseline_accuracy =
      static_cast<double>(before.ok()) / static_cast<double>(before.served());
  EXPECT_DOUBLE_EQ(baseline_accuracy, 1.0);  // co-located map: every fix lands

  // Storm: 8 closed-loop clients against cap 2. Excess must be shed with
  // structured kOverloaded — zero transport errors means no deadline
  // blowouts and no torn frames, which is the whole point of shedding.
  load::Workload storm = base;
  storm.clients = 8;
  storm.client.requests = 15;
  storm.client.shed_pause_ms = 2.0;
  const load::LoadReport during = load::run_closed_loop(storm);
  EXPECT_EQ(during.errors(), 0u);
  EXPECT_GT(during.shed(), 0u);
  EXPECT_EQ(during.served() + during.shed(), during.offered());
  EXPECT_EQ(during.overloaded_replies(), during.shed());

  // Recovery: load gone, the very next unloaded phase matches baseline —
  // all served, no sheds, identical fix accuracy.
  load::Workload after_load = base;
  after_load.clients = 1;
  after_load.client.requests = 12;
  const load::LoadReport after = load::run_closed_loop(after_load);
  EXPECT_EQ(after.served(), after.offered());
  EXPECT_EQ(after.shed(), 0u);
  EXPECT_EQ(after.errors(), 0u);
  EXPECT_EQ(after.retries(), 0u);
  const double recovered_accuracy =
      static_cast<double>(after.ok()) / static_cast<double>(after.served());
  EXPECT_DOUBLE_EQ(recovered_accuracy, baseline_accuracy);

  run.store(false);
  serve_thread.join();
}

TEST(LoadGen, PayloadPickSequenceIsAPureFunctionOfItsArguments) {
  const auto a = load::payload_pick_sequence(11, 0, 32, 6);
  const auto b = load::payload_pick_sequence(11, 0, 32, 6);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 32u);
  for (const std::uint32_t pick : a) EXPECT_LT(pick, 6u);
  // Different clients and different seeds draw different streams.
  EXPECT_NE(a, load::payload_pick_sequence(11, 1, 32, 6));
  EXPECT_NE(a, load::payload_pick_sequence(12, 0, 32, 6));
}

TEST(LoadGen, DeterministicSmokeLedgerIsIdenticalAcrossRuns) {
  const load::DeterministicLedger first = load::deterministic_smoke(5);
  const load::DeterministicLedger second = load::deterministic_smoke(5);
  EXPECT_EQ(first.crc(), second.crc());
  EXPECT_EQ(first.to_json(), second.to_json());
  // The ledger is internally coherent: every gate offer resolved once,
  // and the scripted retry phase recorded one backoff per resend.
  EXPECT_EQ(first.offered, first.admitted + first.shed);
  EXPECT_GT(first.shed, 0u);
  EXPECT_EQ(first.retries, first.backoff_ms.size());
  EXPECT_GT(first.retries, 0u);

  const load::DeterministicLedger other = load::deterministic_smoke(6);
  EXPECT_NE(first.crc(), other.crc());
  EXPECT_NE(first.request_sequence, other.request_sequence);
}

}  // namespace
}  // namespace vp
