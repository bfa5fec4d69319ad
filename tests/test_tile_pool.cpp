// Paged KV tile pool: refcounting, LRU eviction and prefix-registry unit
// tests; PagedKvCache storage and decode parity with fresh encodes; and the
// randomized engine stress test the acceptance criteria name — refcounts
// never underflow, evicted tiles are never reachable from a live block
// table, shared-prefix decode is bit-identical to unshared decode, and a
// preempted-then-readmitted request replays an uninterrupted run exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <random>
#include <vector>

#include "core/decode.hpp"
#include "fault/fault.hpp"
#include "serve/engine.hpp"
#include "serve/tile_pool.hpp"
#include "tensor/random.hpp"
#include "transformer/model.hpp"

namespace fc = ftt::core;
namespace fs = ftt::serve;
namespace ft = ftt::tensor;
namespace fx = ftt::transformer;
using ftt::numeric::Half;

namespace {

fs::TilePoolOptions pool_opts(std::size_t layers, std::size_t heads,
                              std::size_t dim, std::size_t capacity) {
  fs::TilePoolOptions opt;
  opt.layers = layers;
  opt.heads = heads;
  opt.dim = dim;
  opt.capacity_tiles = capacity;
  return opt;
}

fx::ModelConfig serving_config() {
  fx::ModelConfig cfg = fx::ModelConfig::tiny();
  cfg.causal = true;
  return cfg;
}

ft::MatrixF random_prompt(std::size_t seq, std::size_t hidden,
                          std::uint64_t seed) {
  ft::MatrixF m(seq, hidden);
  ft::fill_normal(m, seed);
  return m;
}

std::vector<Half> random_halves(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<float> dist(0.0f, 1.0f);
  std::vector<Half> v(n);
  for (auto& x : v) x = Half(dist(rng));
  return v;
}

}  // namespace

TEST(ChainKey, ExtendIsDeterministicAndOrderSensitive) {
  const float data1[4] = {1.0f, 2.0f, 3.0f, 4.0f};
  const float data2[4] = {4.0f, 3.0f, 2.0f, 1.0f};
  const fs::ChainKey root;
  const fs::ChainKey a = fs::chain_extend(root, data1, sizeof(data1));
  const fs::ChainKey b = fs::chain_extend(root, data1, sizeof(data1));
  EXPECT_EQ(a, b);  // deterministic
  EXPECT_FALSE(a == fs::chain_extend(root, data2, sizeof(data2)));
  // Chain order matters: H(H(root, x), y) != H(H(root, y), x).
  const fs::ChainKey xy =
      fs::chain_extend(fs::chain_extend(root, data1, sizeof(data1)), data2,
                       sizeof(data2));
  const fs::ChainKey yx =
      fs::chain_extend(fs::chain_extend(root, data2, sizeof(data2)), data1,
                       sizeof(data1));
  EXPECT_FALSE(xy == yx);
  // The two lanes are independent hashes, not copies of each other.
  EXPECT_NE(a.a, a.b);
}

TEST(TilePool, RefcountingCapacityAndUnderflow) {
  fs::TilePool pool(pool_opts(2, 2, 32, 3));
  EXPECT_EQ(pool.capacity(), 3u);
  EXPECT_EQ(pool.allocatable(), 3u);
  EXPECT_EQ(pool.in_use(), 0u);

  const auto a = pool.acquire();
  const auto b = pool.acquire();
  const auto c = pool.acquire();
  ASSERT_NE(a, fs::TilePool::kNoTile);
  ASSERT_NE(c, fs::TilePool::kNoTile);
  EXPECT_EQ(pool.in_use(), 3u);
  EXPECT_EQ(pool.allocatable(), 0u);
  // Every tile referenced: acquisition fails, it does not evict.
  EXPECT_EQ(pool.acquire(), fs::TilePool::kNoTile);

  pool.retain(b);
  EXPECT_EQ(pool.refcount(b), 2u);
  pool.release(b);
  EXPECT_EQ(pool.refcount(b), 1u);
  pool.release(b);
  EXPECT_EQ(pool.in_use(), 2u);
  EXPECT_THROW(pool.release(b), std::logic_error);  // underflow is corruption

  // The dead (unpublished) tile is reclaimed for the next acquire, zeroed.
  pool.k_tile(a, 0, 0)[0] = Half(1.0f);  // dirty a referenced tile
  const auto d = pool.acquire();
  EXPECT_EQ(d, b);  // reused, not freshly allocated
  EXPECT_EQ(pool.allocated(), 3u);
  EXPECT_EQ(pool.k_tile(d, 1, 1)[5].bits(), 0u);  // recycled tiles are zeroed

  // Unbounded pools never fail.
  fs::TilePool grow(pool_opts(1, 1, 32, 0));
  EXPECT_EQ(grow.allocatable(), SIZE_MAX);
  for (int i = 0; i < 10; ++i) EXPECT_NE(grow.acquire(), fs::TilePool::kNoTile);
  EXPECT_EQ(grow.allocated(), 10u);
}

TEST(TilePool, PrefixRegistryLruEvictionAndRescue) {
  fs::TilePool pool(pool_opts(1, 1, 32, 3));
  const float seed0[1] = {0.5f}, seed1[1] = {1.5f}, seed2[1] = {2.5f};
  const fs::ChainKey k0 = fs::chain_extend({}, seed0, sizeof(seed0));
  const fs::ChainKey k1 = fs::chain_extend({}, seed1, sizeof(seed1));
  const fs::ChainKey k2 = fs::chain_extend({}, seed2, sizeof(seed2));

  const auto t0 = pool.acquire();
  const auto t1 = pool.acquire();
  const auto t2 = pool.acquire();
  EXPECT_THROW(pool.publish(t0, k0), std::logic_error);  // must seal first
  pool.seal(t0);
  pool.seal(t1);
  pool.seal(t2);
  EXPECT_TRUE(pool.publish(t0, k0));
  EXPECT_TRUE(pool.publish(t1, k1));
  EXPECT_TRUE(pool.publish(t2, k2));
  EXPECT_FALSE(pool.publish(t1, k0));  // first writer wins per key
  EXPECT_EQ(pool.published(), 3u);

  // A hit retains the tile for the caller.
  const auto hit = pool.lookup_shared(k1);
  EXPECT_EQ(hit, t1);
  EXPECT_EQ(pool.refcount(t1), 2u);
  EXPECT_EQ(pool.shared_hits(), 1u);
  EXPECT_EQ(pool.lookup_shared(fs::chain_extend({}, seed0, 0)),
            fs::TilePool::kNoTile);

  // Release in a known order; cached tiles stay discoverable until evicted.
  pool.release(t0);  // LRU
  pool.release(t2);
  pool.release(t1);
  pool.release(t1);  // MRU (was double-referenced)
  EXPECT_EQ(pool.in_use(), 0u);
  EXPECT_EQ(pool.published(), 3u);  // still cached, still attachable

  // A lookup rescues an unreferenced cached tile from the LRU list...
  const auto rescued = pool.lookup_shared(k0);
  EXPECT_EQ(rescued, t0);
  EXPECT_EQ(pool.refcount(t0), 1u);

  // ...so the next acquire evicts the *oldest remaining* cached tile (t2),
  // unregistering its key.
  const auto evicted = pool.acquire();
  EXPECT_EQ(evicted, t2);
  EXPECT_EQ(pool.evictions(), 1u);
  EXPECT_EQ(pool.published(), 2u);
  EXPECT_EQ(pool.lookup_shared(k2), fs::TilePool::kNoTile);
  // t1 (MRU cached) survives and evicts last.
  const auto evicted2 = pool.acquire();
  EXPECT_EQ(evicted2, t1);
  EXPECT_EQ(pool.evictions(), 2u);
  EXPECT_EQ(pool.acquire(), fs::TilePool::kNoTile);  // all referenced again
}

TEST(TilePool, UnboundedPoolRecyclesColdTileBeforeGrowing) {
  // A published tile nobody ever looked up is the first cached tile to go:
  // an unbounded pool recycles it instead of materializing a new tile.
  fs::TilePool pool(pool_opts(1, 1, 32, 0));
  const float seed0[1] = {0.5f};
  const fs::ChainKey k0 = fs::chain_extend({}, seed0, sizeof(seed0));
  const auto t0 = pool.acquire();
  pool.seal(t0);
  ASSERT_TRUE(pool.publish(t0, k0));
  pool.release(t0);  // published, never hit: cold
  EXPECT_EQ(pool.published(), 1u);

  const auto t = pool.acquire();
  EXPECT_EQ(t, t0);  // recycled, not grown
  EXPECT_EQ(pool.allocated(), 1u);
  EXPECT_EQ(pool.evictions(), 1u);
  EXPECT_EQ(pool.published(), 0u);
  EXPECT_FALSE(pool.sealed(t));
  EXPECT_EQ(pool.lookup_shared(k0), fs::TilePool::kNoTile);
  // With no cached tile left, the unbounded pool grows as before.
  EXPECT_NE(pool.acquire(), t0);
  EXPECT_EQ(pool.allocated(), 2u);
}

TEST(TilePool, HitTileOutlivesColdTiles) {
  const float seeds[3] = {0.5f, 1.5f, 2.5f};
  auto key = [&](int i) { return fs::chain_extend({}, &seeds[i], 4); };
  for (const std::size_t capacity : {std::size_t{0}, std::size_t{3}}) {
    fs::TilePool pool(pool_opts(1, 1, 32, capacity));
    std::vector<fs::TilePool::TileId> t;
    for (int i = 0; i < 3; ++i) {
      t.push_back(pool.acquire());
      pool.seal(t[i]);
      ASSERT_TRUE(pool.publish(t[i], key(i)));
    }
    // t0 is shared once and released first — the oldest cached tile — while
    // t1 and t2 are never looked up.
    EXPECT_EQ(pool.lookup_shared(key(0)), t[0]);
    pool.release(t[0]);
    pool.release(t[0]);
    pool.release(t[1]);
    pool.release(t[2]);
    // Cold tiles go first, oldest first...
    EXPECT_EQ(pool.acquire(), t[1]) << capacity;
    EXPECT_EQ(pool.acquire(), t[2]) << capacity;
    EXPECT_EQ(pool.evictions(), 2u);
    // ...then fresh capacity (unbounded), or the hot tile (bounded, full).
    const auto next = pool.acquire();
    if (capacity == 0) {
      EXPECT_EQ(next, 3u);
      EXPECT_EQ(pool.lookup_shared(key(0)), t[0]);  // still attachable
    } else {
      EXPECT_EQ(next, t[0]);
      EXPECT_EQ(pool.evictions(), 3u);
    }
  }
}

TEST(PagedKvCache, StoresInputAndDecodesLikeFreshEncodes) {
  constexpr std::size_t kLayers = 2, kHeads = 2, kDim = 32, kTokens = 150;
  constexpr std::size_t kW = kHeads * kDim, kRows = fs::TilePool::kTileRows;
  fs::TilePool pool(pool_opts(kLayers, kHeads, kDim, 0));
  // Reference: the same appends into a pool without the encoding memo, so
  // its decode encodes every tile fresh per call.
  fs::TilePoolOptions fresh_opt = pool_opts(kLayers, kHeads, kDim, 0);
  fresh_opt.enc_stride = 0;
  fs::TilePool fresh_pool(fresh_opt);
  // Explicit fp16: this test reads the pooled fp16 rows back, so it must
  // not follow the FTT_KV_QUANT default (a sealed kI8 tile frees them).
  fs::PagedKvCache paged(pool, fc::TileFmt::kF16);
  fs::PagedKvCache fresh(fresh_pool, fc::TileFmt::kF16);

  // Mixed chunk schedule crossing tile boundaries, like real ticks; the
  // appended rows are kept per layer for the storage check.
  const std::size_t chunks[] = {64, 50, 1, 35};
  std::vector<std::vector<Half>> input_k(kLayers), input_v(kLayers);
  std::size_t base = 0;
  for (const std::size_t rows : chunks) {
    ASSERT_TRUE(paged.ensure_capacity(base + rows));
    ASSERT_TRUE(fresh.ensure_capacity(base + rows));
    for (std::size_t l = 0; l < kLayers; ++l) {
      const auto k = random_halves(rows * kW, 100 + base * 7 + l);
      const auto v = random_halves(rows * kW, 900 + base * 7 + l);
      paged.append_chunk(l, k, v, rows);
      fresh.append_chunk(l, k, v, rows);
      input_k[l].insert(input_k[l].end(), k.begin(), k.end());
      input_v[l].insert(input_v[l].end(), v.begin(), v.end());
    }
    base += rows;
  }
  ASSERT_EQ(base, kTokens);
  EXPECT_EQ(paged.length(), kTokens);
  EXPECT_EQ(paged.block_table().size(), 3u);
  EXPECT_EQ(paged.shared_tiles(), 0u);

  // Tiles hold exactly the appended rows; full tiles carry sealed
  // encodings, the open tail none; and decode over the sealed encodings is
  // bit-identical to decode with fresh per-call encodes.
  const auto q = random_halves(kDim, 55);
  for (std::size_t l = 0; l < kLayers; ++l) {
    for (std::size_t h = 0; h < kHeads; ++h) {
      const fc::KvSlice s = paged.slice(l, h);
      ASSERT_EQ(s.n, kTokens);
      for (std::size_t t = 0; t < kTokens; ++t) {
        const std::size_t tile = t / kRows, row = (t % kRows) * kDim;
        for (std::size_t c = 0; c < kDim; ++c) {
          const std::size_t i = t * kW + h * kDim + c;
          ASSERT_EQ(s.k_tiles[tile][row + c].bits(), input_k[l][i].bits());
          ASSERT_EQ(s.v_tiles[tile][row + c].bits(), input_v[l][i].bits());
        }
      }
      EXPECT_NE(s.k_c1[0], nullptr);
      EXPECT_NE(s.v_c2[1], nullptr);
      EXPECT_EQ(s.k_c1[2], nullptr);
      std::vector<float> out(kDim), ref(kDim);
      fc::efta_decode_step(s, q, out);
      fc::efta_decode_step(fresh.slice(l, h), q, ref);
      for (std::size_t c = 0; c < kDim; ++c) ASSERT_EQ(out[c], ref[c]) << c;
    }
  }

  // Appending beyond ensured capacity is a protocol violation, not an
  // implicit allocation — the engine's memory phase is the only allocator.
  const auto k1 = random_halves(kHeads * kDim, 77);
  EXPECT_THROW(paged.append_chunk(0, k1, k1, fs::TilePool::kTileRows),
               std::logic_error);

  // Full tiles sealed through the pool are attachable by another cache and
  // arrive with rows and encodings already populated.
  fs::PagedKvCache sharer(pool, fc::TileFmt::kF16);  // match paged's format
  const auto tid = paged.block_table()[0];
  ASSERT_TRUE(pool.sealed(tid));
  pool.retain(tid);  // lookup_shared would do this on a registry hit
  sharer.attach_shared(tid);
  EXPECT_EQ(sharer.length(), 64u);
  EXPECT_EQ(sharer.shared_tiles(), 1u);
  const fc::KvSlice shared = sharer.slice(1, 1);
  EXPECT_EQ(shared.k_tiles[0], paged.slice(1, 1).k_tiles[0]);  // same storage
  EXPECT_NE(shared.k_c1[0], nullptr);  // sharing a tile shares its memo

  // release_all drops every reference; the pool sees the tiles again.
  const std::size_t before = pool.in_use();
  sharer.release_all();
  paged.release_all();
  EXPECT_EQ(pool.in_use(), before - 3u);  // 3 tiles, one double-referenced
  EXPECT_EQ(paged.length(), 0u);
}

TEST(TilePool, EngineStressSharingEvictionPreemptionInvariants) {
  // The acceptance stress test: random mixed-priority traffic over a tight
  // pool, with three groups of requests sharing two common prompts.  Every
  // tick, walk the live block tables and check the pool's refcounts against
  // them exactly; at the end, compare every request against an unshared,
  // unpreempted solo run bit for bit.
  const fx::Model model(serving_config(), 0x70013);
  const std::size_t hidden = model.config().hidden;

  fs::EngineOptions opt;
  opt.scheduler.max_batch_size = 4;
  opt.scheduler.max_kv_tiles = 8;  // tight: forces eviction + preemption
  fs::DecodeEngine engine(model, opt);

  // Prompts: groups A and B share 130- and 150-row prompts (2 shareable
  // sealed tiles each); the rest are unique.
  const ft::MatrixF prompt_a = random_prompt(130, hidden, 0xa);
  const ft::MatrixF prompt_b = random_prompt(150, hidden, 0xb);
  constexpr std::size_t kRequests = 10;
  std::mt19937_64 rng(0x5eed5);
  std::uniform_int_distribution<std::size_t> budget_dist(2, 5);
  std::uniform_int_distribution<std::size_t> gap_dist(0, 4);
  std::uniform_int_distribution<int> pri_dist(0, 2);

  std::vector<ft::MatrixF> prompts;
  std::vector<std::size_t> budgets, arrival;
  std::vector<fs::Priority> pris;
  std::size_t at = 0;
  for (std::size_t i = 0; i < kRequests; ++i) {
    if (i % 3 == 0) {
      prompts.push_back(prompt_a);
    } else if (i % 3 == 1) {
      prompts.push_back(prompt_b);
    } else {
      prompts.push_back(random_prompt(40 + 17 * i, hidden, 0x100 + i));
    }
    budgets.push_back(budget_dist(rng));
    pris.push_back(static_cast<fs::Priority>(pri_dist(rng)));
    arrival.push_back(at);
    at += gap_dist(rng);
  }

  std::vector<fs::DecodeEngine::RequestId> ids(kRequests, 0);
  std::vector<bool> submitted(kRequests, false);
  fs::DecodeEngine::StepStats sum;
  std::size_t tick = 0;
  const std::size_t kMaxTicks = 5000;
  for (; tick < kMaxTicks; ++tick) {
    for (std::size_t i = 0; i < kRequests; ++i) {
      if (!submitted[i] && arrival[i] <= tick) {
        ids[i] = engine.submit(prompts[i], budgets[i], pris[i]);
        submitted[i] = true;
      }
    }
    sum += engine.step();

    // Pool invariants, every tick: nothing over capacity, and the pool's
    // per-tile refcounts equal exactly the number of live block tables
    // mapping the tile.  A tile any live request can reach is therefore
    // always referenced — the free lists and eviction can never touch it —
    // and a refcount underflow throws inside release() itself.
    EXPECT_LE(engine.kv_tiles_in_use(), opt.scheduler.max_kv_tiles);
    EXPECT_LE(engine.pool().allocated(), opt.scheduler.max_kv_tiles);
    std::map<fs::TilePool::TileId, std::size_t> mapped;
    for (std::size_t i = 0; i < kRequests; ++i) {
      if (!submitted[i] || !engine.is_active(ids[i])) continue;
      for (const auto tid : engine.kv_block_table(ids[i])) ++mapped[tid];
    }
    std::size_t referenced = 0;
    for (const auto& [tid, count] : mapped) {
      EXPECT_EQ(engine.pool().refcount(tid), count) << "tile " << tid;
      ++referenced;
    }
    EXPECT_EQ(engine.kv_tiles_in_use(), referenced);

    const bool all_submitted =
        std::all_of(submitted.begin(), submitted.end(), [](bool b) { return b; });
    if (all_submitted && engine.queued() == 0 && engine.active() == 0) break;
  }
  ASSERT_LT(tick, kMaxTicks) << "stress run did not drain — livelock?";

  // The schedule actually exercised what it is meant to: prefix sharing and
  // memory-pressure preemption both fired, and retirements released every
  // reference.
  EXPECT_GT(sum.shared_tiles, 0u);
  EXPECT_GT(sum.preempted, 0u);
  EXPECT_GT(engine.pool().shared_hits(), 0u);
  EXPECT_EQ(engine.kv_tiles_in_use(), 0u);
  EXPECT_EQ(engine.kv_bytes(), 0u);

  // Shared-prefix, evicted, preempted — none of it changes results: every
  // request matches a solo engine with sharing disabled and an unbounded
  // pool (never preempted, never shared), bit for bit.
  for (std::size_t i = 0; i < kRequests; ++i) {
    EXPECT_EQ(engine.state(ids[i]), fs::RequestState::kRetired) << i;
    EXPECT_EQ(engine.context_length(ids[i]),
              prompts[i].rows() + budgets[i])
        << i;
    fs::EngineOptions solo_opt;
    solo_opt.share_prefix = false;
    fs::DecodeEngine solo(model, solo_opt);
    const auto sid = solo.submit(prompts[i], budgets[i]);
    solo.run_until_idle(nullptr, 200);
    EXPECT_EQ(solo.lifetime().shared_tiles, 0u);
    const auto hb = engine.hidden(ids[i]);
    const auto hs = solo.hidden(sid);
    ASSERT_EQ(hb.size(), hs.size());
    for (std::size_t c = 0; c < hb.size(); ++c) {
      ASSERT_EQ(hb[c], hs[c]) << "request " << i << " c " << c;
    }
  }
}

TEST(TilePool, FaultInjectedTicksNeverPublishPrefixTiles) {
  // ABFT correction is approximate, not bit-exact, so a tile sealed while
  // an injector was threaded through the tick could hold perturbed K/V.
  // Such tiles must stay private: publishing them would widen one fault's
  // blast radius to every future sharer of the prompt.
  const fx::Model model(serving_config(), 0x1f4);
  const std::size_t hidden = model.config().hidden;
  const ft::MatrixF prompt = random_prompt(129, hidden, 0xdead);  // 2 sealed

  fs::DecodeEngine engine(model);
  engine.submit(prompt, /*max_new_tokens=*/2);
  ftt::fault::FaultInjector probe;  // even an unarmed probe blocks publish
  engine.step(&probe);              // seals tile 0 under the injector
  EXPECT_EQ(engine.pool().published(), 0u);
  engine.step();                    // clean tick: seals + publishes tile 1
  EXPECT_EQ(engine.pool().published(), 1u);

  // A second request over the same prompt can only attach the clean tile —
  // and tile 1 without tile 0 is useless (the chain misses at tile 0), so
  // it recomputes the whole prompt.
  const auto follower = engine.submit(prompt, /*max_new_tokens=*/2);
  const auto st = engine.step();
  EXPECT_EQ(st.admitted, 1u);
  EXPECT_EQ(engine.shared_tile_count(follower), 0u);
}

TEST(TilePool, SharingHalvesTilesForCommonPrefixWorkload) {
  // The capacity win, pinned deterministically: N requests over one common
  // prompt hold ~1 set of prefix tiles when sharing is on, N sets when off.
  const fx::Model model(serving_config(), 0x515);
  const std::size_t hidden = model.config().hidden;
  const ft::MatrixF prompt = random_prompt(129, hidden, 0xc0);  // 2 sealed

  auto run = [&](bool share) {
    fs::EngineOptions opt;
    opt.share_prefix = share;
    opt.scheduler.max_batch_size = 4;
    fs::DecodeEngine engine(model, opt);
    std::vector<fs::DecodeEngine::RequestId> ids;
    // Leader first: its prefill seals and publishes the 2 prefix tiles...
    ids.push_back(engine.submit(prompt, /*max_new_tokens=*/4));
    engine.drain(3);  // 3 chunks: rows 0-63, 64-127, 128
    // ...then 3 followers, which attach the prefix instead of computing it.
    for (std::size_t i = 0; i < 3; ++i) {
      ids.push_back(engine.submit(prompt, /*max_new_tokens=*/4));
    }
    std::size_t peak = 0;
    for (std::size_t t = 0; t < 100; ++t) {
      engine.step();
      peak = std::max(peak, engine.kv_tiles_in_use());
      if (engine.active() == 0 && engine.queued() == 0) break;
    }
    for (std::size_t i = 1; i < ids.size(); ++i) {
      // Identical prompts, identical budgets: identical outputs either way.
      const auto h0 = engine.hidden(ids[0]);
      const auto hi = engine.hidden(ids[i]);
      for (std::size_t c = 0; c < h0.size(); ++c) EXPECT_EQ(h0[c], hi[c]);
    }
    return std::pair{peak, engine.lifetime()};
  };

  const auto [shared_peak, shared_life] = run(true);
  const auto [unshared_peak, unshared_life] = run(false);
  // Followers attach both sealed prefix tiles instead of prefilling them:
  // 3 followers x 2 tiles attached, 3 x 128 prompt rows never computed.
  EXPECT_EQ(shared_life.shared_tiles, 6u);
  EXPECT_EQ(shared_life.prefill_rows, unshared_life.prefill_rows - 3 * 128);
  EXPECT_EQ(unshared_life.shared_tiles, 0u);
  // Unshared peak: 4 live requests x 3 tiles.  Shared: 2 prefix tiles
  // (counted once) + 4 private tails.  >= 2x effective capacity.
  EXPECT_LT(shared_peak * 2, unshared_peak + 1)
      << "shared " << shared_peak << " vs unshared " << unshared_peak;
}

TEST(TilePool, QueuedRequestPinsReleaseOnFinish) {
  // submit() pins the cached prefix of a prompt (the engine then holds only
  // the rows after it); retiring the request while it is still queued must
  // hand the pins back.
  const fx::Model model(serving_config(), 0x9a1);
  const std::size_t hidden = model.config().hidden;
  const ft::MatrixF prompt = random_prompt(129, hidden, 0x9a2);  // 2 shareable

  fs::DecodeEngine engine(model);
  engine.submit(prompt, /*max_new_tokens=*/2);
  engine.run_until_idle();
  ASSERT_EQ(engine.pool().published(), 2u);
  EXPECT_EQ(engine.kv_tiles_in_use(), 0u);

  const auto queued = engine.submit(prompt, /*max_new_tokens=*/2);
  EXPECT_EQ(engine.state(queued), fs::RequestState::kQueued);
  EXPECT_EQ(engine.kv_tiles_in_use(), 2u);  // the pinned prefix
  engine.finish(queued);
  EXPECT_EQ(engine.kv_tiles_in_use(), 0u);
  EXPECT_EQ(engine.pool().published(), 2u);  // still cached
  EXPECT_EQ(engine.run_until_idle().active, 0u);
}

TEST(TilePool, PinnedPrefixDecodesLikeUnsharedTwin) {
  const fx::Model model(serving_config(), 0x9b1);
  const std::size_t hidden = model.config().hidden;
  const ft::MatrixF leader = random_prompt(140, hidden, 0x9b2);
  ft::MatrixF follower = random_prompt(230, hidden, 0x9b3);
  std::copy_n(leader.data(), 128 * hidden, follower.data());  // 2-tile prefix

  fs::DecodeEngine shared(model);
  shared.submit(leader, /*max_new_tokens=*/3);
  shared.run_until_idle();
  const auto before = shared.lifetime();
  const auto id = shared.submit(follower, /*max_new_tokens=*/5);
  EXPECT_EQ(shared.kv_tiles_in_use(), 2u);  // pinned at submit
  shared.step();  // admission attaches the pinned tiles
  EXPECT_EQ(shared.shared_tile_count(id), 2u);
  shared.run_until_idle();
  EXPECT_EQ(shared.lifetime().shared_tiles - before.shared_tiles, 2u);
  EXPECT_EQ(shared.lifetime().prefill_rows - before.prefill_rows, 230u - 128u);

  fs::EngineOptions off;
  off.share_prefix = false;
  fs::DecodeEngine twin(model, off);
  const auto tid = twin.submit(follower, /*max_new_tokens=*/5);
  twin.run_until_idle();
  const auto a = shared.hidden(id), b = twin.hidden(tid);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0);
}
