#include "index/lsh_index.hpp"

#include <algorithm>

#include "features/distance.hpp"
#include "hashing/murmur3.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace vp {

void select_top_k(std::vector<Match>& matches, std::size_t k) {
  if (k == 0) {
    matches.clear();
    return;
  }
  if (k >= matches.size()) {
    std::sort(matches.begin(), matches.end(), match_less);
    return;
  }
  // Max-heap over the first k slots (largest-so-far on top), then stream
  // the tail through it: each survivor displaces the current worst.
  const auto first = matches.begin();
  const auto kth = first + static_cast<std::ptrdiff_t>(k);
  std::make_heap(first, kth, match_less);
  for (std::size_t i = k; i < matches.size(); ++i) {
    if (match_less(matches[i], matches[0])) {
      std::pop_heap(first, kth, match_less);
      matches[k - 1] = matches[i];
      std::push_heap(first, kth, match_less);
    }
  }
  matches.resize(k);
  std::sort_heap(matches.begin(), matches.end(), match_less);
}

LshIndex::LshIndex(LshIndexConfig config)
    : config_(config),
      lsh_(config.lsh.tables, config.lsh.projections, config.lsh.width,
           config.lsh.seed),
      tables_(config.lsh.tables) {}

std::uint64_t LshIndex::bucket_key(const LshBucket& bucket,
                                   std::size_t table) const {
  const Bytes enc = E2Lsh::encode_bucket(bucket);
  const auto [h1, h2] =
      murmur3_x64_128(enc, 0xa5a50000u + static_cast<std::uint32_t>(table));
  (void)h2;
  return h1;
}

std::uint32_t LshIndex::insert(const Descriptor& descriptor) {
  VP_REQUIRE(size_ < UINT32_MAX, "index full");
  if (borrows_storage()) materialize();  // copy-on-write for mmap'd shards
  const auto id = static_cast<std::uint32_t>(size_);
  flat_.insert(flat_.end(), descriptor.begin(), descriptor.end());
  ++size_;
  if (codebook_.trained()) {
    // Keep codes in lockstep with the flat buffer once trained, so
    // incremental ingest after the first publish stays PQ-ready.
    codes_.resize(size_ * kPqCodeBytes);
    codebook_.encode(descriptor.data(),
                     codes_.data() + static_cast<std::size_t>(id) *
                                         kPqCodeBytes);
  }
  for (std::size_t t = 0; t < tables_.size(); ++t) {
    tables_[t][bucket_key(lsh_.bucket(descriptor, t), t)].push_back(id);
  }
  return id;
}

void LshIndex::materialize() {
  if (!borrowed_flat_.empty()) {
    flat_.assign(borrowed_flat_.begin(), borrowed_flat_.end());
    borrowed_flat_ = {};
  }
  if (!borrowed_codes_.empty()) {
    codes_.assign(borrowed_codes_.begin(), borrowed_codes_.end());
    borrowed_codes_ = {};
  }
  keepalive_.reset();
}

void LshIndex::index_descriptor(std::uint32_t id) {
  Descriptor d;
  std::copy_n(descriptor_ptr(id), kDescriptorDims, d.begin());
  for (std::size_t t = 0; t < tables_.size(); ++t) {
    tables_[t][bucket_key(lsh_.bucket(d, t), t)].push_back(id);
  }
}

void LshIndex::bulk_load(std::span<const std::uint8_t> descriptors,
                         std::size_t count,
                         std::shared_ptr<const void> keepalive) {
  VP_REQUIRE(size_ == 0, "bulk_load: index not empty");
  VP_REQUIRE(descriptors.size() == count * kDescriptorDims,
             "bulk_load: descriptor bytes do not match count");
  VP_REQUIRE(count < UINT32_MAX, "bulk_load: too many descriptors");
  if (keepalive != nullptr && !descriptors.empty()) {
    borrowed_flat_ = descriptors;
    keepalive_ = std::move(keepalive);
  } else {
    flat_.assign(descriptors.begin(), descriptors.end());
  }
  size_ = count;
  // The bucket maps are the only derived state rebuilt here — the whole
  // point of the borrowed path: a cold-shard fault is hash work, not a
  // payload copy.
  for (auto& table : tables_) table.reserve(count);
  for (std::uint32_t id = 0; id < count; ++id) index_descriptor(id);
}

void LshIndex::train_pq() {
  if (!config_.pq.enabled || size_ == 0) return;
  if (!codebook_.trained()) {
    codebook_ = PqCodebook::train(flat_data(), size_, config_.pq.train);
  }
  // Encode everything the codes buffer does not cover yet (all of it on
  // the first call; nothing on later calls, since insert() encodes
  // incrementally once the codebook exists).
  const std::size_t encoded = codes_span().size() / kPqCodeBytes;
  if (encoded < size_) {
    if (!borrowed_codes_.empty()) materialize();
    codes_.resize(size_ * kPqCodeBytes);
    for (std::size_t id = encoded; id < size_; ++id) {
      codebook_.encode(flat_data() + id * kDescriptorDims,
                       codes_.data() + id * kPqCodeBytes);
    }
  }
}

void LshIndex::restore_pq(PqCodebook codebook,
                          std::vector<std::uint8_t> codes) {
  VP_REQUIRE(codebook.trained(), "restore_pq: untrained codebook");
  VP_REQUIRE(codes.size() == size_ * kPqCodeBytes,
             "restore_pq: code bytes do not cover the stored descriptors");
  codebook_ = std::move(codebook);
  codes_ = std::move(codes);
  borrowed_codes_ = {};
}

void LshIndex::restore_pq(PqCodebook codebook,
                          std::span<const std::uint8_t> codes,
                          std::shared_ptr<const void> keepalive) {
  if (keepalive == nullptr || codes.empty()) {
    restore_pq(std::move(codebook),
               std::vector<std::uint8_t>(codes.begin(), codes.end()));
    return;
  }
  VP_REQUIRE(codebook.trained(), "restore_pq: untrained codebook");
  VP_REQUIRE(codes.size() == size_ * kPqCodeBytes,
             "restore_pq: code bytes do not cover the stored descriptors");
  codebook_ = std::move(codebook);
  codes_.clear();
  borrowed_codes_ = codes;
  // Either payload may already borrow from the same mapping; the single
  // keepalive slot pins both (same underlying file).
  keepalive_ = std::move(keepalive);
}

Descriptor LshIndex::descriptor(std::uint32_t id) const {
  VP_REQUIRE(id < size_, "descriptor id out of range");
  Descriptor d;
  std::copy_n(descriptor_ptr(id), kDescriptorDims, d.begin());
  return d;
}

void LshIndex::gather(const LshBucket& bucket, std::size_t table,
                      std::vector<std::uint32_t>& out) const {
  const auto it = tables_[table].find(bucket_key(bucket, table));
  if (it == tables_[table].end()) return;
  out.insert(out.end(), it->second.begin(), it->second.end());
}

void LshIndex::query_into(const Descriptor& descriptor, std::size_t k,
                          Scratch& s, std::vector<Match>& out,
                          const std::uint8_t* query_code) const {
  out.clear();
  auto& candidates = s.candidates;
  candidates.clear();
  for (std::size_t t = 0; t < tables_.size(); ++t) {
    LshBucket bucket = lsh_.bucket(descriptor, t);
    gather(bucket, t, candidates);
    if (config_.multiprobe) {
      for (std::size_t m = 0; m < bucket.size(); ++m) {
        for (const std::int32_t delta : {-1, +1}) {
          bucket[m] += delta;
          gather(bucket, t, candidates);
          bucket[m] -= delta;
        }
      }
    }
    if (candidates.size() > config_.max_candidates) break;
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  // Cap *before* any ranking work: the distance sweep and heap selection
  // below never see more than max_candidates ids.
  if (candidates.size() > config_.max_candidates) {
    candidates.resize(config_.max_candidates);
    VP_OBS_COUNT("index.candidates_truncated", 1);
  }

  const std::uint8_t* q = descriptor.data();

  // Coarse ADC stage (PQ mode): when the candidate set is larger than
  // the rerank depth, score every candidate's 16-byte code against the
  // per-query table and keep only the top R in deterministic (adc, id)
  // order — those alone pay the exact 128-dim rerank below. Skipped when
  // it cannot prune (the exact stage would rank them all anyway).
  const std::size_t rerank =
      std::max<std::size_t>(config_.pq.rerank_depth, k);
  if (pq_ready() && candidates.size() > rerank) {
    if (query_code != nullptr) {
      // Compact query: its code names 16 centroids, whose precomputed
      // distance rows ARE this query's ADC table — gather instead of
      // recompute (bit-identical by construction).
      codebook_.build_symmetric_adc_table(query_code, s.adc_table);
      VP_OBS_COUNT("index.symmetric_tables", 1);
    } else {
      codebook_.build_adc_table(q, s.adc_table);
    }
    s.adc_dists.resize(candidates.size());
    adc_scan(s.adc_table, codes_span().data(), candidates.data(),
             candidates.size(), s.adc_dists.data());
    VP_OBS_COUNT("index.adc_scans",
                 static_cast<std::uint64_t>(candidates.size()));
    VP_OBS_TRACE_NOTE("index.adc_scans", candidates.size());
    auto& coarse = s.adc_matches;
    coarse.clear();
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      coarse.push_back({candidates[i], s.adc_dists[i]});
    }
    select_top_k(coarse, rerank);
    candidates.clear();
    for (const Match& m : coarse) candidates.push_back(m.id);
  }

  auto& matches = s.matches;
  matches.clear();
  for (const std::uint32_t id : candidates) {
    matches.push_back({id, distance2_u8_128(descriptor_ptr(id), q)});
  }
  select_top_k(matches, k);
  out.assign(matches.begin(), matches.end());
}

std::vector<Match> LshIndex::query(const Descriptor& descriptor,
                                   std::size_t k) const {
  Scratch s;
  std::vector<Match> out;
  query_into(descriptor, k, s, out);
  return out;
}

std::vector<std::vector<Match>> LshIndex::query_batch(
    std::span<const Descriptor> queries, std::size_t k,
    ThreadPool* pool) const {
  std::vector<std::vector<Match>> out(queries.size());
  if (queries.empty()) return out;
  if (pool == nullptr) {
    Scratch s;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      query_into(queries[i], k, s, out[i]);
    }
    return out;
  }
  // One scratch per contiguous chunk, one chunk per pool slot; the tables
  // and flat descriptor array are read-only here and every chunk writes a
  // disjoint slice of `out`.
  const std::size_t chunks = std::min<std::size_t>(
      queries.size(), std::max<std::size_t>(1, pool->thread_count()));
  const std::size_t per = (queries.size() + chunks - 1) / chunks;
  pool->parallel_for(chunks, [&](std::size_t c) {
    Scratch s;
    const std::size_t lo = c * per;
    const std::size_t hi = std::min(queries.size(), lo + per);
    for (std::size_t i = lo; i < hi; ++i) query_into(queries[i], k, s, out[i]);
  });
  return out;
}

std::vector<std::vector<Match>> LshIndex::query_batch_codes(
    std::span<const Descriptor> queries, std::span<const std::uint8_t> codes,
    std::size_t k, ThreadPool* pool) const {
  if (!pq_ready()) return query_batch(queries, k, pool);
  VP_REQUIRE(codes.size() == queries.size() * kPqCodeBytes,
             "query_batch_codes: codes do not cover the queries");
  std::vector<std::vector<Match>> out(queries.size());
  if (queries.empty()) return out;
  const auto code_of = [&codes](std::size_t i) {
    return codes.data() + i * kPqCodeBytes;
  };
  if (pool == nullptr) {
    Scratch s;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      query_into(queries[i], k, s, out[i], code_of(i));
    }
    return out;
  }
  const std::size_t chunks = std::min<std::size_t>(
      queries.size(), std::max<std::size_t>(1, pool->thread_count()));
  const std::size_t per = (queries.size() + chunks - 1) / chunks;
  pool->parallel_for(chunks, [&](std::size_t c) {
    Scratch s;
    const std::size_t lo = c * per;
    const std::size_t hi = std::min(queries.size(), lo + per);
    for (std::size_t i = lo; i < hi; ++i) {
      query_into(queries[i], k, s, out[i], code_of(i));
    }
  });
  return out;
}

std::size_t LshIndex::reference_e2lsh_byte_size() const noexcept {
  const std::size_t per_entry = sizeof(Descriptor) + 2 * sizeof(void*) + 16;
  return size_ * (sizeof(Descriptor) + tables_.size() * per_entry);
}

std::size_t LshIndex::byte_size() const noexcept {
  // Borrowed (mmap'd) payloads count at face value: their pages become
  // resident as queries touch them, and the residency budget is about
  // what a hot shard costs, not what a cold mapping reserves.
  std::size_t bytes = (borrowed_flat_.empty() ? flat_.capacity()
                                              : borrowed_flat_.size()) +
                      codes_span().size() +
                      (codebook_.trained() ? kPqCodebookBytes : 0);
  for (const auto& table : tables_) {
    // Per-node overhead of unordered_map (bucket array + node allocation)
    // plus the id vectors themselves.
    bytes += table.bucket_count() * sizeof(void*);
    for (const auto& [key, ids] : table) {
      (void)key;
      bytes += 48;  // node + key + vector header (typical libstdc++ cost)
      bytes += ids.capacity() * sizeof(std::uint32_t);
    }
  }
  return bytes;
}

}  // namespace vp
