// Shard-parallel serving: ShardSpec head partitioning, the head-range
// efta_decode_batch overload, the DeterministicCombiner, and engine-level
// bit-parity of sharded ticks (N in {1, 2, 4}) against the solo engine —
// on a mixed prefill/decode/speculative/preemption workload, under
// identical injected faults, and with per-shard fault attribution.
#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <random>
#include <vector>

#include "core/decode.hpp"
#include "fault/fault.hpp"
#include "kv_fixture.hpp"
#include "serve/combiner.hpp"
#include "serve/engine.hpp"
#include "serve/shard.hpp"
#include "tensor/random.hpp"
#include "transformer/model.hpp"

namespace fa = ftt::attention;
namespace fc = ftt::core;
namespace ff = ftt::fault;
namespace fs = ftt::serve;
namespace ft = ftt::tensor;
namespace fx = ftt::transformer;
using ftt::numeric::Half;

namespace {

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

/// Constant-row read-out head (gamma = 0): generation becomes a repetitive
/// stream the prompt-lookup drafter predicts, so the speculation parity
/// test exercises accepted commits, not just rollbacks.
fx::Model make_spec_model() {
  fx::ModelConfig cfg = serving_config();
  fx::Model model(cfg, 0x5eed);
  auto& gamma = model.final_ln().gamma();
  auto& beta = model.final_ln().beta();
  for (std::size_t c = 0; c < gamma.size(); ++c) {
    gamma[c] = 0.0f;
    beta[c] = 0.25f + 0.001f * static_cast<float>(c);
  }
  return model;
}

void expect_reports_equal(const fa::FtReport& a, const fa::FtReport& b,
                          const char* what) {
  EXPECT_EQ(a.gemm1.checks, b.gemm1.checks) << what;
  EXPECT_EQ(a.gemm1.flagged, b.gemm1.flagged) << what;
  EXPECT_EQ(a.exp_check.checks, b.exp_check.checks) << what;
  EXPECT_EQ(a.gemm2.checks, b.gemm2.checks) << what;
  EXPECT_EQ(a.range_corrections, b.range_corrections) << what;
  EXPECT_EQ(a.total_detected(), b.total_detected()) << what;
  EXPECT_EQ(a.total_corrected(), b.total_corrected()) << what;
  EXPECT_EQ(a.faults_injected, b.faults_injected) << what;
}

void expect_stats_equal(const fs::StepStats& a, const fs::StepStats& b) {
  EXPECT_EQ(a.active, b.active);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.prefill_chunks, b.prefill_chunks);
  EXPECT_EQ(a.prefill_rows, b.prefill_rows);
  EXPECT_EQ(a.decoded, b.decoded);
  EXPECT_EQ(a.retired, b.retired);
  EXPECT_EQ(a.spec_proposed, b.spec_proposed);
  EXPECT_EQ(a.spec_accepted, b.spec_accepted);
  EXPECT_EQ(a.spec_rejected, b.spec_rejected);
  EXPECT_EQ(a.preempted, b.preempted);
  EXPECT_EQ(a.evicted, b.evicted);
  EXPECT_EQ(a.shared_tiles, b.shared_tiles);
  EXPECT_EQ(a.activations_clipped, b.activations_clipped);
  EXPECT_EQ(a.linear.checks, b.linear.checks);
  EXPECT_EQ(a.linear.flagged, b.linear.flagged);
  expect_reports_equal(a.attention, b.attention, "stats.attention");
}

/// The mixed workload every engine-parity test drives: a prefix-shared
/// prompt pair, short decoders, a 4-tile pool that forces preemption, and
/// drafted blocks (mostly rejected on a chaotic model).
struct Workload {
  std::vector<ft::MatrixF> prompts;
  std::vector<std::size_t> budgets;
};

Workload mixed_workload(std::size_t hidden) {
  Workload w;
  // Two prompts sharing a 128-row prefix (2 shareable tiles) + unique tails.
  ft::MatrixF common = random_prompt(128, hidden, 0xc0de);
  for (std::size_t i = 0; i < 2; ++i) {
    ft::MatrixF p(140, hidden);
    for (std::size_t r = 0; r < 128; ++r) {
      for (std::size_t c = 0; c < hidden; ++c) p(r, c) = common(r, c);
    }
    for (std::size_t r = 128; r < 140; ++r) {
      for (std::size_t c = 0; c < hidden; ++c) {
        p(r, c) = common(0, c) * 0.1f + static_cast<float>(i + r) * 1e-3f;
      }
    }
    w.prompts.push_back(std::move(p));
    w.budgets.push_back(6);
  }
  // Two prompts sitting just under a tile boundary: their generation grows
  // them across it mid-run, so the admitted batch's demand (3 + 1 shared
  // + 2 + 2 = 8 tiles) outgrows the 6-tile pool and forces preemption.
  w.prompts.push_back(random_prompt(60, hidden, 0xaaa));
  w.budgets.push_back(9);
  w.prompts.push_back(random_prompt(62, hidden, 0xbbb));
  w.budgets.push_back(12);
  return w;
}

fs::EngineOptions sharded_options(std::size_t shards) {
  fs::EngineOptions opt;
  opt.shards = shards;
  opt.spec_tokens = 4;
  // 6 context tiles: every request fits alone (the 140-row prompts need 3),
  // but the full batch grows to 8 — the preemption path fires (asserted
  // below).
  opt.scheduler.max_kv_tiles = 6;
  opt.scheduler.max_batch_size = 4;
  return opt;
}

/// Drive an engine over the workload until idle, staggered so the shared
/// prefix is sealed (ticks 0..2 prefill prompt 0's tiles) before the
/// sharers are submitted — every engine sees the identical sequence.
fs::StepStats drive(fs::DecodeEngine& engine, const Workload& w,
                    std::vector<fs::DecodeEngine::RequestId>& ids) {
  fs::StepStats total;
  ids.push_back(engine.submit(w.prompts[0], w.budgets[0]));
  for (int t = 0; t < 3; ++t) total.merge(engine.step());
  for (std::size_t i = 1; i < w.prompts.size(); ++i) {
    ids.push_back(engine.submit(w.prompts[i], w.budgets[i]));
  }
  total.merge(engine.run_until_idle(nullptr, /*max_ticks=*/10000));
  return total;
}

}  // namespace

// ---------------------------------------------------------------------------
// ShardSpec / shard_range
// ---------------------------------------------------------------------------

TEST(ShardSpec, RangePartitionsAnyTotal) {
  for (std::size_t nshards : {1u, 2u, 3u, 4u, 7u}) {
    for (std::size_t total : {0u, 1u, 2u, 5u, 64u, 65u}) {
      std::size_t covered = 0;
      std::size_t prev_end = 0;
      for (std::size_t s = 0; s < nshards; ++s) {
        const auto [b, e] = fc::shard_range(s, nshards, total);
        EXPECT_EQ(b, prev_end);  // contiguous, in order
        EXPECT_LE(e - b, total / nshards + 1);
        EXPECT_GE(e - b, total / nshards);  // even to within one
        covered += e - b;
        prev_end = e;
      }
      EXPECT_EQ(covered, total) << nshards << " shards over " << total;
      EXPECT_EQ(prev_end, total);
    }
  }
  EXPECT_THROW((void)fc::shard_range(0, 0, 4), std::invalid_argument);
  EXPECT_THROW((void)fc::shard_range(2, 2, 4), std::invalid_argument);
}

TEST(ShardSpec, MoreShardsThanHeadsYieldsEmptyShards) {
  // tiny has 2 heads; 4 shards -> two owners, two empty.
  std::size_t owned = 0;
  for (std::size_t s = 0; s < 4; ++s) {
    const auto spec = fc::ShardSpec::for_shard(s, 4, 2);
    owned += spec.heads();
    if (s >= 2) {
      EXPECT_TRUE(spec.empty());
    }
  }
  EXPECT_EQ(owned, 2u);
  const auto spec0 = fc::ShardSpec::for_shard(0, 4, 2);
  EXPECT_TRUE(spec0.contains(0));
  EXPECT_FALSE(spec0.contains(1));
}

// ---------------------------------------------------------------------------
// Head-range batch overload
// ---------------------------------------------------------------------------

TEST(Sharding, HeadRangeBatchUnionMatchesFullBatch) {
  const std::size_t lengths[] = {33, 100, 1};
  constexpr std::size_t kHeads = 3, kDim = 32;
  std::deque<kvtest::PagedKv> caches;
  for (std::size_t i = 0; i < std::size(lengths); ++i) {
    caches.emplace_back(kHeads, kDim);
    kvtest::fill_cache(caches.back(), lengths[i], 4000 + i);
  }

  const std::size_t items_n = caches.size() * kHeads;
  std::vector<std::vector<Half>> queries;
  for (std::size_t i = 0; i < items_n; ++i) {
    queries.emplace_back(kDim);
    std::mt19937_64 rng(5000 + i);
    std::normal_distribution<float> dist(0.0f, 1.0f);
    for (auto& x : queries.back()) x = Half(dist(rng));
  }

  auto build = [&](std::vector<std::vector<float>>& out,
                   std::vector<std::size_t>& item_heads) {
    std::vector<fc::DecodeWorkItem> items;
    out.assign(items_n, std::vector<float>(kDim, -7.0f));
    item_heads.clear();
    for (std::size_t r = 0; r < caches.size(); ++r) {
      for (std::size_t h = 0; h < kHeads; ++h) {
        const std::size_t i = r * kHeads + h;
        items.push_back(fc::DecodeWorkItem{caches[r].slice(h),
                                           queries[i].data(),
                                           out[i].data()});
        item_heads.push_back(h);
      }
    }
    return items;
  };

  // Reference: the unsharded batch.
  std::vector<std::vector<float>> full_out;
  std::vector<std::size_t> item_heads;
  auto items = build(full_out, item_heads);
  std::vector<fa::FtReport> full_item(items_n);
  const fa::FtReport full =
      fc::efta_decode_batch(items, {}, nullptr, full_item);

  for (std::size_t nshards : {1u, 2u, 3u}) {
    std::vector<std::vector<float>> out;
    std::vector<std::size_t> heads2;
    auto items2 = build(out, heads2);
    std::vector<fa::FtReport> per_item(items_n);
    fa::FtReport merged;
    for (std::size_t s = 0; s < nshards; ++s) {
      const auto spec = fc::ShardSpec::for_shard(s, nshards, kHeads);
      merged += fc::efta_decode_batch(items2, heads2, spec, {}, nullptr,
                                      per_item);
    }
    // Union of shard outputs == full batch, bit for bit.
    for (std::size_t i = 0; i < items_n; ++i) {
      for (std::size_t c = 0; c < kDim; ++c) {
        EXPECT_EQ(out[i][c], full_out[i][c])
            << nshards << " shards, item " << i << " c " << c;
      }
      EXPECT_EQ(per_item[i].gemm1.checks, full_item[i].gemm1.checks);
      EXPECT_EQ(per_item[i].gemm2.checks, full_item[i].gemm2.checks);
    }
    expect_reports_equal(merged, full, "merged shard reports");
  }

  // An empty shard runs nothing and reports nothing.
  std::vector<std::vector<float>> out;
  std::vector<std::size_t> heads3;
  auto items3 = build(out, heads3);
  const fa::FtReport none = fc::efta_decode_batch(
      items3, heads3, fc::ShardSpec{1, 1}, {}, nullptr, {});
  EXPECT_EQ(none.gemm1.checks, 0u);
  for (std::size_t i = 0; i < items_n; ++i) {
    EXPECT_EQ(out[i][0], -7.0f);  // untouched sentinel
  }

  EXPECT_THROW(
      (void)fc::efta_decode_batch(items3, std::span<const std::size_t>{},
                                  fc::ShardSpec{0, 1}),
      std::invalid_argument);
}

// ---------------------------------------------------------------------------
// DeterministicCombiner
// ---------------------------------------------------------------------------

TEST(Combiner, SingleShardReduceIsExactCopy) {
  const fs::DeterministicCombiner comb(8);
  ft::MatrixF a(3, 10);
  ft::fill_normal(a, 1);
  ft::MatrixF out(3, 10);
  const ft::MatrixF* parts[] = {&a};
  comb.reduce(parts, out);
  EXPECT_EQ(out, a);
}

TEST(Combiner, ReduceIsFixedOrderDeterministicAndCorrect) {
  const std::size_t n = 4, len = 1000;
  std::vector<std::vector<float>> parts(n, std::vector<float>(len));
  std::mt19937_64 rng(99);
  std::normal_distribution<float> dist(0.0f, 1.0f);
  for (auto& p : parts) {
    for (auto& x : p) x = dist(rng);
  }
  std::vector<std::span<const float>> views(parts.begin(), parts.end());

  const fs::DeterministicCombiner comb(64);
  std::vector<float> out1(len), out2(len);
  comb.reduce(views, out1);
  comb.reduce(views, out2);
  EXPECT_EQ(out1, out2);  // bit-deterministic across calls

  // Values match the mathematical sum to float tolerance.
  for (std::size_t i = 0; i < len; i += 97) {
    double exact = 0.0;
    for (const auto& p : parts) exact += p[i];
    EXPECT_NEAR(out1[i], static_cast<float>(exact), 1e-4);
  }

  // Pin the ring rotation: chunk c accumulates starting at shard c % n, so
  // element 64 (first of chunk 1) must equal the float sum taken in the
  // exact order 1, 2, 3, 0.
  float expect0 = parts[1][64];
  for (std::size_t s = 2; s <= n; ++s) expect0 += parts[s % n][64];
  EXPECT_EQ(out1[64], expect0);

  EXPECT_THROW(comb.reduce(std::span<const std::span<const float>>{},
                           std::span<float>{}),
               std::invalid_argument);
  EXPECT_THROW(fs::DeterministicCombiner(0), std::invalid_argument);
}

TEST(Combiner, MergesReportsAndStatsInShardOrder) {
  std::vector<fa::FtReport> reps(3);
  reps[0].gemm1.checks = 5;
  reps[1].gemm2.flagged = 2;
  reps[2].faults_injected = 1;
  const fa::FtReport m = fs::DeterministicCombiner::merge(reps);
  EXPECT_EQ(m.gemm1.checks, 5u);
  EXPECT_EQ(m.gemm2.flagged, 2u);
  EXPECT_EQ(m.faults_injected, 1u);

  std::vector<fs::StepStats> stats(2);
  stats[0].decoded = 3;
  stats[0].linear.checks = 7;
  stats[1].decoded = 4;
  stats[1].spec_accepted = 2;
  const fs::StepStats s = fs::DeterministicCombiner::merge(stats);
  EXPECT_EQ(s.decoded, 7u);
  EXPECT_EQ(s.spec_accepted, 2u);
  EXPECT_EQ(s.linear.checks, 7u);
}

// ---------------------------------------------------------------------------
// Engine-level shard parity
// ---------------------------------------------------------------------------

TEST(ShardedEngine, BitIdenticalToSoloOnMixedWorkload) {
  const fx::Model model(serving_config(), 0x77);
  const std::size_t hidden = model.config().hidden;
  const Workload w = mixed_workload(hidden);

  // Solo reference.
  fs::DecodeEngine solo(model, sharded_options(1));
  std::vector<fs::DecodeEngine::RequestId> solo_ids;
  const fs::StepStats solo_stats = drive(solo, w, solo_ids);
  // The workload must actually exercise the interesting paths.
  EXPECT_GT(solo_stats.preempted, 0u);
  EXPECT_GT(solo_stats.shared_tiles, 0u);
  EXPECT_GT(solo_stats.decoded, 0u);

  for (std::size_t shards : {2u, 4u}) {
    fs::DecodeEngine sharded(model, sharded_options(shards));
    EXPECT_EQ(sharded.shards(), shards);
    std::vector<fs::DecodeEngine::RequestId> ids;
    const fs::StepStats stats = drive(sharded, w, ids);
    expect_stats_equal(stats, solo_stats);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      EXPECT_EQ(sharded.context_length(ids[i]),
                solo.context_length(solo_ids[i]));
      const auto hs = solo.hidden(solo_ids[i]);
      const auto hh = sharded.hidden(ids[i]);
      ASSERT_EQ(hs.size(), hh.size());
      for (std::size_t c = 0; c < hs.size(); ++c) {
        EXPECT_EQ(hh[c], hs[c])
            << shards << " shards, request " << i << " c " << c;
      }
      expect_reports_equal(sharded.report(ids[i]), solo.report(solo_ids[i]),
                           "per-request report");
    }
    // Per-shard attention reports merge to the engine lifetime total.
    fa::FtReport merged;
    for (const auto& r : sharded.shard_reports()) merged += r;
    expect_reports_equal(merged, sharded.lifetime().attention,
                         "shard_reports sum");
  }
}

TEST(ShardedEngine, SpeculativeCommitsBitIdenticalToSolo) {
  // gamma = 0 read-out: the generated stream repeats, the prompt-lookup
  // drafter locks on, and accepted drafts flow through commit + rollback.
  const fx::Model model = make_spec_model();
  const std::size_t hidden = model.config().hidden;
  const ft::MatrixF prompt = random_prompt(30, hidden, 0x51c);

  auto run = [&](std::size_t shards) {
    fs::EngineOptions opt;
    opt.shards = shards;
    opt.spec_tokens = 4;
    fs::DecodeEngine engine(model, opt);
    const auto id = engine.submit(prompt, 24);
    const fs::StepStats stats = engine.run_until_idle(nullptr, 10000);
    return std::pair<fs::StepStats, std::size_t>(stats,
                                                 engine.context_length(id));
  };

  const auto [solo_stats, solo_len] = run(1);
  EXPECT_GT(solo_stats.spec_accepted, 0u);  // speculation actually commits
  for (std::size_t shards : {2u, 4u}) {
    const auto [stats, len] = run(shards);
    expect_stats_equal(stats, solo_stats);
    EXPECT_EQ(len, solo_len);
  }
}

TEST(ShardedEngine, FaultParityWithSoloUnderIdenticalInjection) {
  const fx::Model model(serving_config(), 0xfa17);
  const std::size_t hidden = model.config().hidden;
  const ft::MatrixF prompt = random_prompt(70, hidden, 0xfeed);

  auto run = [&](std::size_t shards) {
    fs::EngineOptions opt;
    opt.shards = shards;
    fs::DecodeEngine engine(model, opt);
    const auto id = engine.submit(prompt, 8);
    // An injected tick runs the solo body in both engines, so one
    // identically-seeded fault process observes the identical call
    // sequence.
    ff::FaultInjector inj = ff::FaultInjector::bernoulli(5e-6, 0x5eed11);
    engine.run_until_idle(&inj, 10000);
    struct Out {
      std::vector<float> hidden;
      fa::FtReport report;
      std::size_t injected;
    } out;
    out.hidden.assign(engine.hidden(id).begin(), engine.hidden(id).end());
    out.report = engine.report(id);
    out.injected = inj.injected();
    return out;
  };

  const auto solo = run(1);
  const auto sharded = run(2);
  EXPECT_GT(solo.injected, 0u);  // the campaign actually placed flips
  EXPECT_EQ(sharded.injected, solo.injected);
  expect_reports_equal(sharded.report, solo.report, "injected report");
  ASSERT_EQ(sharded.hidden.size(), solo.hidden.size());
  for (std::size_t c = 0; c < solo.hidden.size(); ++c) {
    EXPECT_EQ(sharded.hidden[c], solo.hidden[c]) << "c " << c;
  }
}

TEST(ShardedEngine, PoisonedShardFaultIsAttributedToThatShardOnly) {
  const fx::Model model(serving_config(), 0xbad);
  const std::size_t hidden = model.config().hidden;
  const ft::MatrixF prompt = random_prompt(70, hidden, 0x90);

  // Scan single-flip call indices until a flip lands in shard 1's head
  // range (tiny: head 1 exactly), then assert the whole fault — injection,
  // detection, correction — stays in shard 1's report.
  bool found = false;
  for (std::size_t idx = 0; idx < 2000 && !found; idx += 13) {
    fs::EngineOptions opt;
    opt.shards = 2;
    fs::DecodeEngine engine(model, opt);
    const auto id = engine.submit(prompt, 2);
    engine.step();  // admit + prefill chunk 1 (clean)
    engine.step();  // prefill chunk 2 (clean)
    ff::FaultInjector inj =
        ff::FaultInjector::single(ff::Site::kGemm1, idx, 30);
    engine.step(&inj);  // decode tick under the flip
    (void)id;
    if (inj.injected() == 0) continue;
    const auto reports = engine.shard_reports();
    ASSERT_EQ(reports.size(), 2u);
    if (reports[1].faults_injected == 0) continue;  // flip hit shard 0
    found = true;
    // The poisoned shard owns the fault *and* its detection...
    EXPECT_EQ(reports[1].faults_injected, 1u);
    EXPECT_GT(reports[1].total_detected() + reports[1].total_corrected(),
              0u);
    // ...and the healthy shard's report stays clean of it.
    EXPECT_EQ(reports[0].faults_injected, 0u);
    const std::size_t slack = reports[0].gemm1.checks / 1000 + 2;
    EXPECT_LE(reports[0].total_detected(), slack);
  }
  EXPECT_TRUE(found) << "no scanned flip index hit shard 1";
}

TEST(ShardedEngine, RingReduceModeIsDeterministicAndClose) {
  const fx::Model model(serving_config(), 0x419);
  const std::size_t hidden = model.config().hidden;
  const ft::MatrixF prompt = random_prompt(40, hidden, 0x5151);

  auto run_ring = [&] {
    fs::EngineOptions opt;
    opt.shards = 2;
    opt.combine = fs::CombineMode::kRingReduce;
    fs::DecodeEngine engine(model, opt);
    const auto id = engine.submit(prompt, 6);
    engine.run_until_idle(nullptr, 10000);
    return std::vector<float>(engine.hidden(id).begin(),
                              engine.hidden(id).end());
  };
  const auto a = run_ring();
  const auto b = run_ring();
  EXPECT_EQ(a, b);  // deterministic for a fixed shard count

  fs::DecodeEngine solo(model);
  const auto id = solo.submit(prompt, 6);
  solo.run_until_idle(nullptr, 10000);
  const auto hs = solo.hidden(id);
  ASSERT_EQ(a.size(), hs.size());
  // Ring reduction re-associates float adds: close, not necessarily equal.
  for (std::size_t c = 0; c < a.size(); ++c) {
    EXPECT_NEAR(a[c], hs[c], 1e-3f + 1e-3f * std::fabs(hs[c])) << "c " << c;
  }
}

TEST(ShardedEngine, RejectsUnshardableConfigurations) {
  const fx::Model model(serving_config(), 1);
  fs::EngineOptions opt;
  opt.shards = 0;
  EXPECT_THROW(fs::DecodeEngine(model, opt), std::invalid_argument);

  // head_dim 32 cannot land head-column slices on 64-wide ABFT tiles.
  fx::ModelConfig narrow = serving_config();
  narrow.hidden = 64;
  narrow.heads = 2;
  narrow.ffn_inner = 128;
  const fx::Model narrow_model(narrow, 2);
  fs::EngineOptions opt2;
  opt2.shards = 2;
  EXPECT_THROW(fs::DecodeEngine(narrow_model, opt2), std::invalid_argument);
  // ...while the solo engine still serves it.
  fs::DecodeEngine ok(narrow_model);
  EXPECT_EQ(ok.shards(), 1u);
}
