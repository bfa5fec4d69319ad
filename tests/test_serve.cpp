// Batched fault-tolerant serving: paged KV tiling, efta_decode_batch
// batch-vs-serial bit-identity, fault campaigns through the batched path,
// and the DecodeEngine submit/step/drain front-end.
#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <limits>
#include <random>
#include <vector>

#include "core/decode.hpp"
#include "fault/campaign.hpp"
#include "kv_fixture.hpp"
#include "serve/engine.hpp"
#include "tensor/random.hpp"
#include "transformer/model.hpp"

namespace fa = ftt::attention;
namespace fc = ftt::core;
namespace ff = ftt::fault;
namespace fs = ftt::serve;
namespace ft = ftt::tensor;
namespace fx = ftt::transformer;
using ftt::numeric::Half;
using kvtest::fill_cache;
using kvtest::PagedKv;

namespace {

std::vector<Half> random_query(std::size_t d, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<float> dist(0.0f, 1.0f);
  std::vector<Half> q(d);
  for (auto& x : q) x = Half(dist(rng));
  return q;
}

}  // namespace

TEST(FtReport, MergeAccumulatesAllCounters) {
  fa::FtReport a, b;
  a.gemm1.checks = 3;
  a.gemm1.corrected = 1;
  a.exp_check.recomputed = 2;
  a.dmr_recomputes = 5;
  a.faults_injected = 1;
  b.gemm1.checks = 4;
  b.gemm1.checksum_repairs = 2;
  b.gemm2.flagged = 1;
  b.range_corrections = 3;
  b.faults_injected = 2;

  fa::FtReport sum = a + b;
  EXPECT_EQ(sum.gemm1.checks, 7u);
  EXPECT_EQ(sum.gemm1.corrected, 1u);
  EXPECT_EQ(sum.gemm1.checksum_repairs, 2u);
  EXPECT_EQ(sum.exp_check.recomputed, 2u);
  EXPECT_EQ(sum.gemm2.flagged, 1u);
  EXPECT_EQ(sum.dmr_recomputes, 5u);
  EXPECT_EQ(sum.range_corrections, 3u);
  EXPECT_EQ(sum.faults_injected, 3u);

  a += b;
  EXPECT_EQ(a.gemm1.checks, sum.gemm1.checks);
  EXPECT_EQ(a.total_corrected(), sum.total_corrected());
  EXPECT_EQ(a.total_detected(), sum.total_detected());
}

TEST(PagedKv, GrowsInAlignedTilesWithStableStorage) {
  PagedKv cache(2, 32);
  EXPECT_EQ(cache.cache.length(), 0u);
  EXPECT_EQ(cache.cache.block_table().size(), 0u);

  fill_cache(cache, 1, 1);
  EXPECT_EQ(cache.cache.length(), 1u);
  EXPECT_EQ(cache.cache.block_table().size(), 1u);
  const fc::KvSlice first = cache.slice(0);
  const Half* tile0_k = first.k_tiles[0];
  const float k000 = tile0_k[0].to_float();

  // Appending across a tile boundary must not relocate tile 0's rows.
  fill_cache(cache, 130, 2);
  EXPECT_EQ(cache.cache.length(), 131u);
  EXPECT_EQ(cache.cache.block_table().size(), 3u);
  const fc::KvSlice after = cache.slice(0);
  EXPECT_EQ(after.k_tiles[0], tile0_k);
  EXPECT_EQ(tile0_k[0].to_float(), k000);
  EXPECT_EQ(after.n, 131u);
  EXPECT_EQ(after.tiles(), 3u);

  // Rows past the valid count of the tail tile are zero-initialized — the
  // padding convention the ragged-tail checksums assume.
  const std::size_t tail_rows = 131u - 2u * 64u;
  const Half* tail = after.k_tiles[2];
  for (std::size_t r = tail_rows; r < fs::TilePool::kTileRows; ++r) {
    for (std::size_t c = 0; c < 32; ++c) {
      EXPECT_EQ(tail[r * 32 + c].bits(), 0u);
    }
  }
}

TEST(PagedKv, SealsEncodingsOncePerFullTile) {
  PagedKv cache(2, 32);
  EXPECT_EQ(cache.pool.enc_stride(), 8);
  fill_cache(cache, 63, 11);
  {
    const fc::KvSlice sl = cache.slice(0);
    ASSERT_NE(sl.k_c1, nullptr);
    EXPECT_EQ(sl.enc_stride, 8);
    EXPECT_EQ(sl.k_c1[0], nullptr);  // tail tile: not sealed yet
  }
  fill_cache(cache, 68, 12);  // 131 tokens: tiles 0 and 1 sealed, tail open
  const fc::KvSlice sl = cache.slice(1);
  ASSERT_EQ(sl.tiles(), 3u);
  for (std::size_t t = 0; t < 2; ++t) {
    EXPECT_NE(sl.k_c1[t], nullptr) << t;
    EXPECT_NE(sl.k_c2[t], nullptr) << t;
    EXPECT_NE(sl.v_c1[t], nullptr) << t;
    EXPECT_NE(sl.v_c2[t], nullptr) << t;
  }
  EXPECT_EQ(sl.k_c1[2], nullptr);
  EXPECT_EQ(sl.v_c2[2], nullptr);

  // Sealed encodings are immutable: appending more tokens must not touch
  // tile 0's encoding storage (pointers stay put, like the tiles).
  const Half* enc0 = sl.k_c1[0];
  fill_cache(cache, 70, 13);
  EXPECT_EQ(cache.slice(1).k_c1[0], enc0);

  // A stride that cannot tile the footprint (or an explicit 0) disables
  // memoization instead of rejecting the pool; decode still works via the
  // fresh-encode fallback.
  PagedKv nomemo(1, 32, 5);
  EXPECT_EQ(nomemo.pool.enc_stride(), 0);
  fill_cache(nomemo, 70, 14);
  EXPECT_EQ(nomemo.slice(0).enc_stride, 0);
  EXPECT_EQ(nomemo.slice(0).k_c1[0], nullptr);
  const auto q = random_query(32, 15);
  std::vector<float> out(32);
  fc::efta_decode_step(nomemo.slice(0), q, out, fc::EftaOptions{});
  EXPECT_EQ(PagedKv(1, 32, 0).pool.enc_stride(), 0);
}

TEST(Serve, FullTileReadsAreZeroCopy) {
  // The kernel materializes (pads-and-copies) only the ragged tail tile;
  // full tiles are consumed in place.  core::testing::tiles_materialized()
  // counts materializations on this thread, and efta_decode_step runs the
  // slice serially on the calling thread.
  constexpr std::size_t kDim = 64;
  const auto q = random_query(kDim, 21);
  std::vector<float> out(kDim);
  std::size_t& count = fc::testing::tiles_materialized();

  PagedKv ragged(1, kDim);
  fill_cache(ragged, 130, 22);  // 2 full tiles + 2-row tail
  std::size_t before = count;
  fc::efta_decode_step(ragged.slice(0), q, out);
  EXPECT_EQ(count - before, 1u);  // only the tail tile was materialized

  PagedKv aligned(1, kDim);
  fill_cache(aligned, 128, 23);  // 2 full tiles, no tail
  before = count;
  fc::efta_decode_step(aligned.slice(0), q, out);
  EXPECT_EQ(count - before, 0u);  // fully zero-copy
}

TEST(Serve, BatchedDecodeBitIdenticalToSerialLoop) {
  // Heterogeneous context lengths, including ragged tails.
  const std::size_t lengths[] = {33, 64, 100, 127, 1};
  constexpr std::size_t kHeads = 2, kDim = 32;
  std::deque<PagedKv> caches;
  for (std::size_t i = 0; i < std::size(lengths); ++i) {
    caches.emplace_back(kHeads, kDim);
    fill_cache(caches.back(), lengths[i], 1000 + i);
  }

  const std::size_t items_n = caches.size() * kHeads;
  std::vector<std::vector<Half>> queries;
  std::vector<std::vector<float>> batch_out(items_n,
                                            std::vector<float>(kDim));
  std::vector<fc::DecodeWorkItem> items;
  for (std::size_t r = 0; r < caches.size(); ++r) {
    for (std::size_t h = 0; h < kHeads; ++h) {
      queries.push_back(random_query(kDim, 2000 + r * kHeads + h));
    }
  }
  for (std::size_t r = 0; r < caches.size(); ++r) {
    for (std::size_t h = 0; h < kHeads; ++h) {
      const std::size_t i = r * kHeads + h;
      items.push_back(fc::DecodeWorkItem{caches[r].slice(h),
                                         queries[i].data(),
                                         batch_out[i].data()});
    }
  }

  std::vector<fa::FtReport> per_item(items_n);
  const fa::FtReport agg = fc::efta_decode_batch(items, {}, nullptr, per_item);

  // Clean batch: essentially every checksum comparison passes.  Per-token
  // (chunk = 1) runs verify at tiny norms where the relative threshold can
  // trip on rounding noise; such flags are self-healing, so the bound is a
  // tiny rate, never an exact zero.
  EXPECT_GT(agg.gemm1.checks, 0u);
  const std::size_t slack = agg.gemm1.checks / 1000 + 2;
  EXPECT_LE(agg.total_detected(), slack);
  EXPECT_LE(agg.total_corrected(), slack);

  fa::FtReport merged;
  for (std::size_t i = 0; i < items_n; ++i) {
    std::vector<float> serial_out(kDim);
    const std::size_t r = i / kHeads, h = i % kHeads;
    const fa::FtReport rep = fc::efta_decode_step(caches[r].slice(h),
                                                  queries[i], serial_out);
    for (std::size_t c = 0; c < kDim; ++c) {
      EXPECT_EQ(batch_out[i][c], serial_out[c]) << "item " << i << " c " << c;
    }
    EXPECT_EQ(per_item[i].gemm1.checks, rep.gemm1.checks);
    EXPECT_EQ(per_item[i].exp_check.checks, rep.exp_check.checks);
    merged += per_item[i];
  }
  EXPECT_EQ(agg.gemm1.checks, merged.gemm1.checks);
  EXPECT_EQ(agg.exp_check.checks, merged.exp_check.checks);
  EXPECT_EQ(agg.gemm2.checks, merged.gemm2.checks);
}

TEST(Serve, UnarmedProbeCountsCallsThroughBatch) {
  // Campaign sizing: a null-op injector threaded through the batch path
  // must still observe the per-site call counts.
  PagedKv cache(1, 64);
  fill_cache(cache, 100, 9);
  const auto q = random_query(64, 10);
  std::vector<float> out(64);
  std::vector<fc::DecodeWorkItem> items{
      fc::DecodeWorkItem{cache.slice(0), q.data(), out.data()}};
  ff::FaultInjector probe;
  fc::efta_decode_batch(items, {}, &probe);
  EXPECT_EQ(probe.calls(ff::Site::kGemm1), 100u);  // one hook per valid lane
  EXPECT_GT(probe.calls(ff::Site::kExp), 0u);
  EXPECT_EQ(probe.injected(), 0u);
}

TEST(Serve, BatchFaultCampaignStillCorrects) {
  const std::size_t lengths[] = {100, 65};
  constexpr std::size_t kHeads = 1, kDim = 64;
  std::deque<PagedKv> caches;
  std::vector<std::vector<Half>> queries;
  for (std::size_t i = 0; i < std::size(lengths); ++i) {
    caches.emplace_back(kHeads, kDim);
    fill_cache(caches.back(), lengths[i], 3000 + i);
    queries.push_back(random_query(kDim, 3100 + i));
  }

  auto run_batch = [&](std::vector<std::vector<float>>& out,
                       ff::FaultInjector* inj) {
    std::vector<fc::DecodeWorkItem> items;
    for (std::size_t r = 0; r < caches.size(); ++r) {
      items.push_back(fc::DecodeWorkItem{caches[r].slice(0),
                                         queries[r].data(), out[r].data()});
    }
    return fc::efta_decode_batch(items, {}, inj);
  };

  std::vector<std::vector<float>> clean(caches.size(),
                                        std::vector<float>(kDim));
  run_batch(clean, nullptr);

  auto trial = [&](ff::FaultInjector& inj) -> ff::TrialResult {
    std::vector<std::vector<float>> out(caches.size(),
                                        std::vector<float>(kDim));
    const fa::FtReport rep = run_batch(out, &inj);
    float dev = 0.0f;
    for (std::size_t r = 0; r < caches.size(); ++r) {
      for (std::size_t c = 0; c < kDim; ++c) {
        const float d = std::fabs(out[r][c] - clean[r][c]);
        dev = std::isfinite(d) ? std::max(dev, d) : 1e30f;
      }
    }
    return {dev, rep.total_detected() > 0};
  };

  // Checksum-protected sites have exact correction paths: every injected
  // flip must be repaired (or be numerically negligible).
  ff::CampaignConfig cfg;
  cfg.sites = {ff::Site::kGemm1, ff::Site::kExp, ff::Site::kGemm2};
  cfg.call_offsets = {0, 40, 90, 130};
  cfg.bits = {30, 24, 20};
  const ff::CampaignStats stats = ff::run_campaign(cfg, trial);
  EXPECT_GT(stats.injected, 0u);
  EXPECT_GT(stats.detected, 0u);
  EXPECT_GE(stats.absorption_rate(), 0.95);
  EXPECT_LT(stats.worst_deviation, 5e-2f);

  // The rowsum is range-restricted, not checksummed (paper Case 3): the
  // SNVR replacement value is an approximation, so the guarantee is a
  // finite, bounded output — and detection whenever the flip leaves the
  // theoretical range — not bit recovery.
  ff::CampaignConfig rs;
  rs.sites = {ff::Site::kReduceSum};
  rs.call_offsets = {0, 1, 2};
  rs.bits = {30, 24, 20};
  const ff::CampaignStats rstats = ff::run_campaign(rs, trial);
  EXPECT_GT(rstats.injected, 0u);
  EXPECT_LT(rstats.worst_deviation, 1e2f);  // never NaN/Inf/unbounded
}

// ---------------------------------------------------------------------------
// Chunked causal prefill: the kernel must be bit-identical, row for row, to
// feeding the same tokens one at a time through efta_decode_step.
// ---------------------------------------------------------------------------

namespace {

struct TokenStream {
  std::vector<Half> k, v, q;  // tokens x dim each (single head)
  std::size_t dim;

  TokenStream(std::size_t tokens, std::size_t d, std::uint64_t seed)
      : k(tokens * d), v(tokens * d), q(tokens * d), dim(d) {
    std::mt19937_64 rng(seed);
    std::normal_distribution<float> dist(0.0f, 1.0f);
    for (auto& x : k) x = Half(dist(rng));
    for (auto& x : v) x = Half(dist(rng));
    for (auto& x : q) x = Half(dist(rng));
  }

  [[nodiscard]] std::span<const Half> row(const std::vector<Half>& m,
                                          std::size_t t) const {
    return {m.data() + t * dim, dim};
  }
};

}  // namespace

TEST(Serve, MemoizedEncodingsBitIdenticalToFreshEncode) {
  // A pool with the encoding memo decodes from sealed per-tile encodings;
  // a pool built at enc_stride = 0 re-encodes every tile per call.  The two
  // must agree bit for bit — the memo is the same computation, done once.
  constexpr std::size_t kDim = 64, kN = 197;  // 3 full tiles + ragged tail
  const TokenStream ts(kN, kDim, 0xeca1);
  PagedKv memo(1, kDim), fresh(1, kDim, /*enc_stride=*/0);
  for (std::size_t t = 0; t < kN; ++t) {
    memo.append(ts.row(ts.k, t), ts.row(ts.v, t));
    fresh.append(ts.row(ts.k, t), ts.row(ts.v, t));
  }
  // The tiles hold exactly the appended rows.
  const fc::KvSlice sl = memo.slice(0);
  constexpr std::size_t kRows = fs::TilePool::kTileRows;
  for (std::size_t t = 0; t < kN; ++t) {
    const std::size_t tile = t / kRows, row = (t % kRows) * kDim;
    for (std::size_t c = 0; c < kDim; ++c) {
      ASSERT_EQ(sl.k_tiles[tile][row + c].bits(), ts.k[t * kDim + c].bits());
      ASSERT_EQ(sl.v_tiles[tile][row + c].bits(), ts.v[t * kDim + c].bits());
    }
  }
  ASSERT_NE(sl.k_c1[0], nullptr);
  ASSERT_EQ(fresh.slice(0).enc_stride, 0);

  const auto q = ts.row(ts.q, 0);
  std::vector<float> out_memo(kDim), out_fresh(kDim);
  const fa::FtReport rep_memo = fc::efta_decode_step(sl, q, out_memo);
  const fa::FtReport rep_fresh =
      fc::efta_decode_step(fresh.slice(0), q, out_fresh);
  for (std::size_t c = 0; c < kDim; ++c) {
    EXPECT_EQ(out_memo[c], out_fresh[c]) << c;
  }
  EXPECT_EQ(rep_memo.gemm1.checks, rep_fresh.gemm1.checks);
  EXPECT_EQ(rep_memo.exp_check.checks, rep_fresh.exp_check.checks);
  EXPECT_EQ(rep_memo.gemm2.checks, rep_fresh.gemm2.checks);

  // A stride mismatch (kernel stride != memo stride) must fall back to
  // fresh encodes, not consume incompatible encodings.
  fc::EftaOptions wide;
  wide.stride = 16;
  std::vector<float> memo16(kDim), fresh16(kDim);
  fc::efta_decode_step(sl, q, memo16, wide);
  fc::efta_decode_step(fresh.slice(0), q, fresh16, wide);
  for (std::size_t c = 0; c < kDim; ++c) {
    EXPECT_EQ(memo16[c], fresh16[c]) << c;
  }
}

TEST(PagedKv, AppendChunkMatchesPerTokenAppend) {
  constexpr std::size_t kHeads = 2, kDim = 32, kTokens = 130;
  const TokenStream ts(kTokens, kHeads * kDim, 41);

  PagedKv per_token(kHeads, kDim), chunked(kHeads, kDim);
  for (std::size_t t = 0; t < kTokens; ++t) {
    per_token.append(ts.row(ts.k, t), ts.row(ts.v, t));
  }
  const std::size_t chunks[] = {64, 50, 16};  // 130 rows, ragged tail tile
  std::size_t base = 0;
  for (const std::size_t rows : chunks) {
    chunked.append({ts.k.data() + base * kHeads * kDim, rows * kHeads * kDim},
                   {ts.v.data() + base * kHeads * kDim, rows * kHeads * kDim},
                   rows);
    base += rows;
  }

  ASSERT_EQ(per_token.cache.length(), chunked.cache.length());
  ASSERT_EQ(per_token.cache.block_table().size(),
            chunked.cache.block_table().size());
  for (std::size_t h = 0; h < kHeads; ++h) {
    const fc::KvSlice a = per_token.slice(h), b = chunked.slice(h);
    for (std::size_t j = 0; j < a.tiles(); ++j) {
      for (std::size_t i = 0; i < fs::TilePool::kTileRows * kDim; ++i) {
        ASSERT_EQ(a.k_tiles[j][i].bits(), b.k_tiles[j][i].bits());
        ASSERT_EQ(a.v_tiles[j][i].bits(), b.v_tiles[j][i].bits());
      }
    }
  }
}

TEST(Prefill, ChunkBitIdenticalToTokenByTokenDecode) {
  constexpr std::size_t kDim = 32, kTokens = 150;
  const TokenStream ts(kTokens, kDim, 0xc0ffee);

  // Reference: grow the cache token by token; each token's attention over
  // its own prefix is one protected decode step.
  std::vector<float> ref(kTokens * kDim);
  PagedKv cache_ref(1, kDim);
  fa::FtReport ref_rep;
  for (std::size_t t = 0; t < kTokens; ++t) {
    cache_ref.append(ts.row(ts.k, t), ts.row(ts.v, t));
    ref_rep += fc::efta_decode_step(cache_ref.slice(0), ts.row(ts.q, t),
                                    {ref.data() + t * kDim, kDim});
  }
  // Token-by-token (chunk = 1) verification: allow rare threshold noise.
  EXPECT_LE(ref_rep.total_detected(), ref_rep.gemm1.checks / 1000 + 2);

  // Chunked prefill over the same tokens, both tile-aligned chunks (the
  // production schedule) and deliberately misaligned ones (chunks spanning
  // tile boundaries).
  const std::vector<std::vector<std::size_t>> schedules = {
      {64, 64, 22}, {30, 50, 40, 30}, {1, 63, 64, 21, 1}};
  for (const auto& schedule : schedules) {
    PagedKv cache(1, kDim);
    std::vector<float> out(kTokens * kDim, 0.0f);
    fa::FtReport rep;
    std::size_t base = 0;
    for (const std::size_t rows : schedule) {
      cache.append({ts.k.data() + base * kDim, rows * kDim},
                   {ts.v.data() + base * kDim, rows * kDim}, rows);
      rep += fc::efta_decode_block(fc::DecodeWorkItem{
          cache.slice(0), ts.q.data() + base * kDim,
          out.data() + base * kDim, rows, 0, 0});
      base += rows;
    }
    ASSERT_EQ(base, kTokens);
    // Schedules include 1-row chunks (the per-token path): a tiny rate of
    // marginal flags is threshold noise, not a dirty run.
    EXPECT_LE(rep.total_detected(), rep.gemm1.checks / 1000 + 2)
        << "clean chunks must verify (essentially) clean";
    for (std::size_t i = 0; i < kTokens * kDim; ++i) {
      ASSERT_EQ(out[i], ref[i]) << "schedule[0]=" << schedule[0] << " i=" << i;
    }
  }
}

TEST(Prefill, BatchMatchesSerialChunksAndHandlesEmpty) {
  // Empty batch: zeroed report, no OpenMP region (the idle-tick guarantee).
  const fa::FtReport empty_decode = fc::efta_decode_batch({});
  EXPECT_EQ(empty_decode.gemm1.checks, 0u);
  EXPECT_EQ(empty_decode.total_detected(), 0u);

  constexpr std::size_t kDim = 64, kTokens = 100;
  const TokenStream a(kTokens, kDim, 7), b(70, kDim, 8);
  PagedKv ca(1, kDim), cb(1, kDim);
  ca.append({a.k.data(), 64 * kDim}, {a.v.data(), 64 * kDim}, 64);
  cb.append({b.k.data(), 64 * kDim}, {b.v.data(), 64 * kDim}, 64);
  std::vector<float> out_batch(2 * 64 * kDim), out_serial(2 * 64 * kDim);
  std::vector<fc::DecodeWorkItem> items{
      fc::DecodeWorkItem{ca.slice(0), a.q.data(), out_batch.data(), 64, 0, 0},
      fc::DecodeWorkItem{cb.slice(0), b.q.data(),
                         out_batch.data() + 64 * kDim, 64, 0, 0}};
  std::vector<fa::FtReport> per(2);
  const fa::FtReport agg = fc::efta_decode_batch(items, {}, nullptr, per);
  EXPECT_EQ(agg.total_detected(), 0u);

  fa::FtReport serial;
  items[0].out = out_serial.data();
  items[1].out = out_serial.data() + 64 * kDim;
  serial += fc::efta_decode_block(items[0]);
  serial += fc::efta_decode_block(items[1]);
  for (std::size_t i = 0; i < out_batch.size(); ++i) {
    ASSERT_EQ(out_batch[i], out_serial[i]) << i;
  }
  EXPECT_EQ(agg.gemm1.checks, serial.gemm1.checks);
  EXPECT_EQ(per[0].gemm1.checks + per[1].gemm1.checks, agg.gemm1.checks);

  // Malformed items are rejected up front with the offending index.
  std::vector<fc::DecodeWorkItem> bad{
      fc::DecodeWorkItem{ca.slice(0), a.q.data(), out_batch.data(), 65, 0,
                         0}};  // block larger than the 64-row kernel tile
  EXPECT_THROW(fc::efta_decode_batch(bad), std::invalid_argument);
  bad[0] = fc::DecodeWorkItem{ca.slice(0), a.q.data(), out_batch.data(), 0,
                              0, 0};  // empty block
  EXPECT_THROW(fc::efta_decode_batch(bad), std::invalid_argument);
  PagedKv tiny(1, kDim);
  tiny.append({a.k.data(), 2 * kDim}, {a.v.data(), 2 * kDim}, 2);
  bad[0] = fc::DecodeWorkItem{tiny.slice(0), a.q.data(), out_batch.data(), 3,
                              0, 0};  // cache doesn't hold the block's rows
  EXPECT_THROW(fc::efta_decode_batch(bad), std::invalid_argument);
}

TEST(Prefill, FaultCampaignStillCorrects) {
  constexpr std::size_t kDim = 64, kTokens = 100;
  const TokenStream ts(kTokens, kDim, 0xfa117);
  PagedKv cache(1, kDim);
  cache.append({ts.k.data(), kTokens * kDim}, {ts.v.data(), kTokens * kDim},
               kTokens);

  // Clean reference for the final chunk (rows 64..99 over the full cache).
  std::vector<float> clean(36 * kDim);
  const auto item = [&](std::vector<float>& out) {
    return fc::DecodeWorkItem{cache.slice(0), ts.q.data() + 64 * kDim,
                              out.data(), 36, 0, 0};
  };
  {
    auto it = item(clean);
    fc::efta_decode_block(it);
  }

  auto trial = [&](ff::FaultInjector& inj) -> ff::TrialResult {
    std::vector<float> out(36 * kDim);
    auto it = item(out);
    const fa::FtReport r = fc::efta_decode_block(it, {}, &inj);
    float dev = 0.0f;
    for (std::size_t i = 0; i < out.size(); ++i) {
      const float d = std::fabs(out[i] - clean[i]);
      dev = std::isfinite(d) ? std::max(dev, d) : 1e30f;
    }
    return {dev, r.total_detected() > 0};
  };

  ff::CampaignConfig cfg;
  cfg.sites = {ff::Site::kGemm1, ff::Site::kExp, ff::Site::kGemm2};
  cfg.call_offsets = {0, 33, 77, 150};
  cfg.bits = {30, 24, 20};
  const ff::CampaignStats stats = ff::run_campaign(cfg, trial);
  EXPECT_GT(stats.injected, 0u);
  EXPECT_GT(stats.detected, 0u);
  EXPECT_GE(stats.absorption_rate(), 0.95);
  EXPECT_LT(stats.worst_deviation, 5e-2f);
}

// ---------------------------------------------------------------------------
// Continuous-batching engine front-end.
// ---------------------------------------------------------------------------

namespace {

fx::ModelConfig serving_config() {
  fx::ModelConfig cfg = fx::ModelConfig::tiny();
  cfg.causal = true;  // decode == causal attention over the prefix
  return cfg;
}

ft::MatrixF random_prompt(std::size_t seq, std::size_t hidden,
                          std::uint64_t seed) {
  ft::MatrixF m(seq, hidden);
  ft::fill_normal(m, seed);
  return m;
}

}  // namespace

TEST(Engine, BatchedTickBitIdenticalToSingleRequestEngines) {
  const fx::Model model(serving_config(), 0xabc);
  const std::size_t hidden = model.config().hidden;
  const std::size_t prompt_lens[] = {5, 12, 33};

  fs::DecodeEngine batched(model);
  std::vector<fs::DecodeEngine::RequestId> ids;
  std::vector<ft::MatrixF> prompts;
  for (std::size_t i = 0; i < std::size(prompt_lens); ++i) {
    prompts.push_back(random_prompt(prompt_lens[i], hidden, 7000 + i));
    ids.push_back(batched.submit(prompts.back()));
  }
  // submit() is enqueue-only: no compute, no admission yet.
  EXPECT_EQ(batched.queued(), 3u);
  EXPECT_EQ(batched.active(), 0u);
  EXPECT_EQ(batched.lifetime().active, 0u);
  EXPECT_EQ(batched.state(ids[0]), fs::RequestState::kQueued);

  // Tick 1 admits all three and absorbs each prompt in one chunk.
  const auto tick1 = batched.step();
  EXPECT_EQ(tick1.admitted, 3u);
  EXPECT_EQ(tick1.prefill_chunks, 3u);
  EXPECT_EQ(tick1.prefill_rows, 5u + 12u + 33u);
  EXPECT_EQ(tick1.active, 5u + 12u + 33u);
  EXPECT_EQ(tick1.decoded, 0u);
  EXPECT_GT(tick1.linear.checks, 0u);
  EXPECT_GT(tick1.attention.gemm1.checks, 0u);
  EXPECT_EQ(batched.state(ids[2]), fs::RequestState::kDecoding);

  const auto stats = batched.drain(4);
  EXPECT_EQ(stats.decoded, 12u);  // 3 sequences x 4 token-steps
  EXPECT_EQ(stats.active, 12u);
  EXPECT_GT(stats.attention.gemm1.checks, 0u);
  EXPECT_GT(stats.linear.checks, 0u);
  // Decode ticks verify per token (chunk = 1): tolerate threshold noise.
  EXPECT_LE(stats.attention.total_detected(),
            stats.attention.gemm1.checks / 1000 + 2);

  for (std::size_t i = 0; i < prompts.size(); ++i) {
    fs::DecodeEngine solo(model);
    const auto id = solo.submit(prompts[i]);
    solo.drain(5);  // 1 prefill tick + 4 decode ticks
    EXPECT_EQ(batched.context_length(ids[i]), prompt_lens[i] + 4);
    const auto hb = batched.hidden(ids[i]);
    const auto hs = solo.hidden(id);
    ASSERT_EQ(hb.size(), hs.size());
    for (std::size_t c = 0; c < hb.size(); ++c) {
      EXPECT_EQ(hb[c], hs[c]) << "request " << i << " c " << c;
    }
  }
}

TEST(Engine, ChunkedPrefillBitIdenticalToSerialTokenByToken) {
  const fx::Model model(serving_config(), 0x5ca1e);
  const std::size_t hidden = model.config().hidden;
  // A long prompt (3 chunks: 64 + 64 + 22) interleaving with two short
  // requests that are already decoding while it prefills.
  const std::size_t lens[] = {20, 150, 7};
  const std::size_t budgets[] = {7, 5, 9};

  // Generation budgets make each request's trajectory scheduling-invariant:
  // request r always decodes exactly budgets[r] tokens, no matter how its
  // ticks interleave with the others', so engines with different chunk
  // sizes land on comparable final states.
  auto run = [&](std::size_t chunk_rows) {
    fs::EngineOptions opt;
    opt.prefill_chunk_rows = chunk_rows;
    // Chunk-size invariance is an fp16 property: chunking changes *when* a
    // tile seals relative to the reads against it, and a kI8 seal is lossy,
    // so different chunkings read different (quantized vs open-fp16) bits.
    // Pin fp16 explicitly so the FTT_KV_QUANT leg keeps the test meaningful.
    opt.kv_quant = false;
    fs::DecodeEngine engine(model, opt);
    std::vector<fs::DecodeEngine::RequestId> ids;
    for (std::size_t i = 0; i < std::size(lens); ++i) {
      ids.push_back(
          engine.submit(random_prompt(lens[i], hidden, 9000 + i), budgets[i]));
    }
    engine.run_until_idle(nullptr, 4000);
    std::vector<std::vector<float>> h;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      EXPECT_EQ(engine.state(ids[i]), fs::RequestState::kRetired);
      EXPECT_EQ(engine.context_length(ids[i]), lens[i] + budgets[i]);
      const auto s = engine.hidden(ids[i]);
      h.emplace_back(s.begin(), s.end());
    }
    EXPECT_EQ(engine.kv_tiles_in_use(), 0u);  // retirement frees the tiles
    return h;
  };

  const auto chunked = run(64);   // production: tile-sized prefill chunks
  const auto serial = run(1);     // serial token-by-token prefill
  ASSERT_EQ(chunked.size(), serial.size());
  for (std::size_t r = 0; r < chunked.size(); ++r) {
    ASSERT_EQ(chunked[r].size(), serial[r].size());
    for (std::size_t c = 0; c < chunked[r].size(); ++c) {
      EXPECT_EQ(chunked[r][c], serial[r][c]) << "request " << r << " c " << c;
    }
  }

  // And both match a solo engine running only the long request.
  fs::EngineOptions solo_opt;
  solo_opt.kv_quant = false;  // same pinned format as the runs above
  fs::DecodeEngine solo(model, solo_opt);
  const auto sid =
      solo.submit(random_prompt(lens[1], hidden, 9001), budgets[1]);
  solo.run_until_idle(nullptr, 4000);
  const auto hs = solo.hidden(sid);
  ASSERT_EQ(hs.size(), chunked[1].size());
  for (std::size_t c = 0; c < hs.size(); ++c) {
    EXPECT_EQ(chunked[1][c], hs[c]) << c;
  }
}

TEST(Engine, CacheBackedGenerationMatchesFullRecompute) {
  const fx::Model model(serving_config(), 0xdef);
  const std::size_t hidden = model.config().hidden;

  fs::EngineOptions opt;
  opt.record_inputs = true;  // keep the replay history this test compares
  // The from-scratch recompute below never touches the KV cache, so the
  // comparison is only bitwise for the lossless fp16 format — pin it
  // explicitly (the FTT_KV_QUANT leg flips the default to kI8).
  opt.kv_quant = false;
  fs::DecodeEngine engine(model, opt);
  const auto id = engine.submit(random_prompt(40, hidden, 0xfeed));
  engine.step();     // admit + one-chunk prefill of the 40 prompt rows
  engine.drain(24);  // total context 64: a full efta_attention block
  ASSERT_EQ(engine.context_length(id), 64u);

  // A from-scratch protected forward over exactly the rows the engine fed
  // must land on the same final hidden state (the KV cache only avoids
  // recomputation, never changes the math beyond summation order).
  ft::MatrixF x = engine.fed_inputs(id);
  ASSERT_EQ(x.rows(), 64u);
  model.forward(x, fx::AttentionKind::kEfta, /*protect_linear=*/true);
  const auto h = engine.hidden(id);
  for (std::size_t c = 0; c < hidden; ++c) {
    EXPECT_NEAR(h[c], x(x.rows() - 1, c), 5e-3f) << c;
  }
}

TEST(Engine, CorrectsInjectedFaultDuringDecode) {
  const fx::Model model(serving_config(), 0x123);
  const std::size_t hidden = model.config().hidden;
  const ft::MatrixF prompt = random_prompt(20, hidden, 0xbeef);

  fs::DecodeEngine clean_engine(model);
  const auto cid = clean_engine.submit(prompt);
  clean_engine.drain(4);  // prefill tick + 3 decode ticks

  fs::DecodeEngine faulty_engine(model);
  const auto fid = faulty_engine.submit(prompt);
  faulty_engine.drain(3);  // prefill tick + 2 decode ticks
  auto inj = ff::FaultInjector::single(ff::Site::kGemm1, 7, 30);
  const auto stats = faulty_engine.step(&inj);
  EXPECT_EQ(stats.attention.faults_injected, 1u);
  EXPECT_GE(stats.attention.total_detected(), 1u);
  EXPECT_GE(faulty_engine.report(fid).total_detected(), 1u);

  const auto hc = clean_engine.hidden(cid);
  const auto hf = faulty_engine.hidden(fid);
  for (std::size_t c = 0; c < hidden; ++c) {
    EXPECT_NEAR(hf[c], hc[c], 1e-2f) << c;
  }
}

TEST(Engine, FinishReleasesRequestAndReclaimsTiles) {
  const fx::Model model(serving_config(), 0x321);
  fs::DecodeEngine engine(model);
  const auto a = engine.submit(random_prompt(8, model.config().hidden, 1));
  const auto b = engine.submit(random_prompt(16, model.config().hidden, 2));
  engine.step();  // admit + prefill both
  EXPECT_EQ(engine.active(), 2u);
  const std::size_t tiles_before = engine.kv_tiles_in_use();
  EXPECT_GT(tiles_before, 0u);

  engine.finish(a);
  EXPECT_FALSE(engine.is_active(a));
  EXPECT_EQ(engine.state(a), fs::RequestState::kRetired);
  EXPECT_EQ(engine.active(), 1u);
  EXPECT_LT(engine.kv_tiles_in_use(), tiles_before);  // tiles reclaimed
  EXPECT_EQ(engine.context_length(a), 8u);  // history survives retirement

  const auto stats = engine.step();
  EXPECT_EQ(stats.decoded, 1u);  // only b advanced
  EXPECT_EQ(stats.active, 1u);
  EXPECT_EQ(engine.context_length(b), 17u);
  EXPECT_EQ(engine.fed_inputs(a).rows(), 0u);  // history freed on retirement
  EXPECT_FALSE(engine.hidden(a).empty());      // last hidden stays readable
  EXPECT_THROW((void)engine.hidden(99), std::out_of_range);

  // finish() also cancels a request that was never admitted.
  fs::EngineOptions opt;
  opt.scheduler.max_batch_size = 1;
  fs::DecodeEngine small(model, opt);
  small.submit(random_prompt(4, model.config().hidden, 3));
  const auto waiting = small.submit(random_prompt(4, model.config().hidden, 4));
  small.step();
  EXPECT_EQ(small.state(waiting), fs::RequestState::kQueued);
  small.finish(waiting);
  EXPECT_EQ(small.state(waiting), fs::RequestState::kRetired);
  EXPECT_EQ(small.queued(), 0u);
}

TEST(Engine, IdleTickIsFreeAndZeroed) {
  const fx::Model model(serving_config(), 0x99);
  fs::DecodeEngine engine(model);

  // Regression: a tick with zero admitted requests must return zeroed stats
  // without entering the batched compute path (no OpenMP team spin-up).
  const auto idle = engine.step();
  EXPECT_EQ(idle.active, 0u);
  EXPECT_EQ(idle.admitted, 0u);
  EXPECT_EQ(idle.prefill_chunks, 0u);
  EXPECT_EQ(idle.prefill_rows, 0u);
  EXPECT_EQ(idle.decoded, 0u);
  EXPECT_EQ(idle.retired, 0u);
  EXPECT_EQ(idle.attention.gemm1.checks, 0u);
  EXPECT_EQ(idle.linear.checks, 0u);
  EXPECT_EQ(engine.lifetime().active, 0u);

  // Same after the last request retires.
  const auto id = engine.submit(
      random_prompt(4, model.config().hidden, 5), /*max_new_tokens=*/2);
  engine.run_until_idle(nullptr, 100);
  EXPECT_EQ(engine.state(id), fs::RequestState::kRetired);
  const auto after = engine.step();
  EXPECT_EQ(after.active, 0u);
  EXPECT_EQ(after.attention.gemm1.checks, 0u);
}

TEST(Engine, RejectsBadOptionsAtConstruction) {
  const fx::Model model(serving_config(), 0x55);
  fs::EngineOptions opt;
  opt.efta.stride = 3;  // head_dim 64 is not a multiple of 3
  EXPECT_THROW(fs::DecodeEngine(model, opt), std::invalid_argument);

  fs::EngineOptions chunk0;
  chunk0.prefill_chunk_rows = 0;
  EXPECT_THROW(fs::DecodeEngine(model, chunk0), std::invalid_argument);
  fs::EngineOptions chunk65;
  chunk65.prefill_chunk_rows = 65;
  EXPECT_THROW(fs::DecodeEngine(model, chunk65), std::invalid_argument);
}

TEST(Engine, RetiresCappedRequestWithoutStallingTheBatch) {
  const fx::Model model(serving_config(), 0x77);
  fs::EngineOptions opt;
  opt.max_context = 12;
  fs::DecodeEngine engine(model, opt);
  const auto a = engine.submit(random_prompt(10, model.config().hidden, 4));
  const auto b = engine.submit(random_prompt(4, model.config().hidden, 5));

  // a caps out after 2 generated tokens; b keeps going to its own cap.
  engine.drain(6);  // prefill tick + 5 decode ticks (a retires mid-way)
  EXPECT_FALSE(engine.is_active(a));
  EXPECT_TRUE(engine.is_active(b));
  EXPECT_EQ(engine.context_length(a), 12u);
  EXPECT_EQ(engine.context_length(b), 9u);
  EXPECT_FALSE(engine.hidden(a).empty());

  // Prompts beyond the cap are rejected outright.
  EXPECT_THROW(engine.submit(random_prompt(13, model.config().hidden, 6)),
               std::invalid_argument);
}

TEST(Engine, HugeBudgetSaturatesAtMaxContext) {
  // Regression: prompt_rows + SIZE_MAX must saturate at max_context, not
  // wrap below the prompt and under-reserve KV tiles.
  const fx::Model model(serving_config(), 0x41);
  fs::EngineOptions opt;
  opt.max_context = 130;
  fs::DecodeEngine engine(model, opt);
  const auto id = engine.submit(random_prompt(129, model.config().hidden, 9),
                                std::numeric_limits<std::size_t>::max());
  engine.run_until_idle(nullptr, 100);
  EXPECT_EQ(engine.state(id), fs::RequestState::kRetired);
  EXPECT_EQ(engine.context_length(id), 130u);  // one generated token
}

TEST(Engine, TokenBudgetRetiresAndLifetimeMatchesSteps) {
  const fx::Model model(serving_config(), 0x31);
  fs::DecodeEngine engine(model);
  const auto a = engine.submit(random_prompt(70, model.config().hidden, 6),
                               /*max_new_tokens=*/3);
  fs::DecodeEngine::StepStats sum;
  std::size_t ticks = 0;
  while ((engine.queued() != 0 || engine.active() != 0) && ticks < 100) {
    sum += engine.step();
    ++ticks;
  }
  EXPECT_EQ(engine.state(a), fs::RequestState::kRetired);
  EXPECT_EQ(engine.context_length(a), 73u);
  // 70-row prompt = 2 chunks (64 + 6), then 3 decode ticks, then the
  // retirement tick.
  EXPECT_EQ(sum.prefill_chunks, 2u);
  EXPECT_EQ(sum.prefill_rows, 70u);
  EXPECT_EQ(sum.decoded, 3u);
  EXPECT_EQ(sum.retired, 1u);

  // All compute happens inside ticks: lifetime() is exactly the sum of the
  // per-step stats.
  const auto& life = engine.lifetime();
  EXPECT_EQ(life.active, sum.active);
  EXPECT_EQ(life.prefill_rows, sum.prefill_rows);
  EXPECT_EQ(life.decoded, sum.decoded);
  EXPECT_EQ(life.attention.gemm1.checks, sum.attention.gemm1.checks);
  EXPECT_EQ(life.attention.exp_check.checks, sum.attention.exp_check.checks);
  EXPECT_EQ(life.attention.gemm2.checks, sum.attention.gemm2.checks);
  EXPECT_EQ(life.linear.checks, sum.linear.checks);
}
