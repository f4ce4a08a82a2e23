// The traced run's per-layer replays. Each replays one input the run
// already served (a frame, a query, a download, a wardrive batch) through
// the layers' public functions one at a time, inside the benchmark's own
// spans, and accumulates the counts the per-layer metrics divide by.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "checks.hpp"
#include "common.hpp"
#include "core/client.hpp"
#include "core/server.hpp"
#include "tracer.hpp"

namespace perfbench {

struct LayerCounts {
  double frames = 0;
  double keypoints = 0;          ///< extracted, over replayed frames
  double selected = 0;           ///< kept by top-k, over replayed frames
  double descriptor_ms = 0;      ///< sift minus detection-only time
  double scored_keypoints = 0;
  double inserted_keypoints = 0;
  double features_queried = 0;   ///< query features ranked, per shard
  double candidates = 0;         ///< matches within the match distance
  double cluster_input = 0;
  double clustered = 0;
  std::uint64_t time_bound_hits = 0;
  std::vector<std::uint32_t> index_top1, brute_top1;  ///< recall samples
  std::vector<double> unattributed_ms;
  std::vector<double> transport_ms;
  std::vector<double> oracle_wire_bytes;
};

/// imaging -> features -> hashing -> core select -> PQ encode -> wire
/// encode/decode for one frame, against the phone's oracle and `codebook`
/// (the phone's place's codebook; may be untrained for raw queries).
void replay_frame(Tracer& tracer, LayerCounts& counts,
                  vp::VisualPrintClient& phone, const vp::ImageF& image,
                  const vp::PqCodebook* codebook);

/// decode -> per shard: LshIndex::query_batch, match filter, largest
/// cluster, localize — the server's query path, layer by layer, on the
/// shards the query would reach (its place, or every shard when it names
/// none). Recall@1 of the index against brute force is sampled here.
/// Returns the summed layer time (ms) for the unattributed-handler split.
double replay_query(Tracer& tracer, LayerCounts& counts,
                    const vp::VisualPrintServer& server,
                    std::span<const std::uint8_t> query_bytes,
                    std::uint64_t seed);

/// OracleDownload::pack / encode / unpack of one place's current oracle.
void replay_download(Tracer& tracer, LayerCounts& counts,
                     const vp::VisualPrintServer& server,
                     const std::string& place);

/// UniquenessOracle::insert of a wardrive batch into a scratch oracle of
/// the place's configuration.
void replay_inserts(Tracer& tracer, LayerCounts& counts,
                    const vp::OracleConfig& config,
                    const std::vector<vp::Descriptor>& batch);

/// Per-layer metrics from the traced spans and counts. `untraced_fix_p50`
/// and `traced_fix_p50` give obs.trace_overhead_pct.
struct LedgerTotals {
  std::uint64_t retries = 0, sheds = 0, stale_refreshes = 0;
  std::uint64_t shard_solves = 0, fixes = 0;
  /// Keypoints per second of each set-up ingest_wardrive.
  std::vector<double> ingest_rates;
};
Metrics per_layer_metrics(const Tracer& tracer, const LayerCounts& counts,
                          const LedgerTotals& totals, double untraced_fix_p50,
                          double traced_fix_p50);

/// Shard-level localize() calls the program has counted so far
/// (obs counter server.queries).
std::uint64_t shard_solve_counter();

}  // namespace perfbench
