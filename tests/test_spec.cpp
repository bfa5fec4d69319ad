// Speculative multi-token decode: k-token query blocks through the verified
// kernel, the pluggable drafter, engine-level accept/reject with KV
// rollback, and the hard guarantee behind all of it — with speculation
// enabled, every retired request's committed token stream and hidden states
// are bit-identical to the q_len = 1 serial run, under clean ticks, under
// identical injected faults, and across preemption.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>
#include <unordered_map>
#include <vector>

#include "core/decode.hpp"
#include "fault/fault.hpp"
#include "serve/engine.hpp"
#include "serve/proposer.hpp"
#include "serve/tile_pool.hpp"
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

/// Read-out head shaped for a repetitive suffix: final-LN gamma = 0 and a
/// nonzero beta make every generated input row exactly the beta row, bit
/// for bit, while every layer underneath still computes in full.  The
/// prompt-lookup drafter then reaches ~100% acceptance as soon as the
/// constant suffix is two rows long — the workload speculative decode is
/// built for, in its sharpest form.
fx::Model constant_stream_model(std::uint64_t seed) {
  fx::Model model(serving_config(), seed);
  auto& gamma = model.final_ln().gamma();
  auto& beta = model.final_ln().beta();
  for (std::size_t c = 0; c < gamma.size(); ++c) {
    gamma[c] = 0.0f;
    beta[c] = 0.25f + 0.001f * static_cast<float>(c);
  }
  return model;
}

/// Deliberately useless drafter: always proposes max_rows copies of the
/// last committed row.  On a non-repetitive stream every draft is rejected
/// every tick — the rollback paths (open-tile truncation, tile-boundary
/// crossings, whole-draft rejection) fire constantly while the committed
/// stream must stay byte-for-byte serial.
class RepeatLastProposer final : public fs::TokenProposer {
 public:
  void reset(std::size_t id) override { last_.erase(id); }
  void observe(std::size_t id, std::span<const float> row) override {
    last_[id].assign(row.begin(), row.end());
  }
  std::size_t propose(std::size_t id, std::size_t max_rows,
                      std::size_t hidden, float* out) override {
    const auto it = last_.find(id);
    if (it == last_.end() || it->second.size() != hidden) return 0;
    for (std::size_t r = 0; r < max_rows; ++r) {
      std::memcpy(out + r * hidden, it->second.data(),
                  hidden * sizeof(float));
    }
    return max_rows;
  }

 private:
  std::unordered_map<std::size_t, std::vector<float>> last_;
};

void expect_bitwise_equal(std::span<const float> a, std::span<const float> b,
                          const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << what << " diverges at " << i;
  }
}

void expect_same_stream(fs::DecodeEngine& a, fs::DecodeEngine::RequestId ida,
                        fs::DecodeEngine& b, fs::DecodeEngine::RequestId idb) {
  const ft::MatrixF fa_ = a.fed_inputs(ida), fb = b.fed_inputs(idb);
  ASSERT_EQ(fa_.rows(), fb.rows()) << "committed stream lengths differ";
  ASSERT_EQ(fa_.cols(), fb.cols());
  for (std::size_t r = 0; r < fa_.rows(); ++r) {
    for (std::size_t c = 0; c < fa_.cols(); ++c) {
      ASSERT_EQ(fa_(r, c), fb(r, c)) << "stream row " << r << " col " << c;
    }
  }
  expect_bitwise_equal(a.hidden(ida), b.hidden(idb), "final hidden");
}

}  // namespace

// ---------------------------------------------------------------------------
// Kernel + cache rollback primitives.
// ---------------------------------------------------------------------------

TEST(PagedKvTruncate, DeferredSealCommitAndRollback) {
  constexpr std::size_t kLayers = 2, kHeads = 1, kDim = 64;
  fs::TilePool pool(
      fs::TilePoolOptions{kLayers, kHeads, kDim, /*capacity=*/8, 8});
  fs::PagedKvCache cache(pool);

  std::mt19937_64 rng(0x9a6ed);
  std::normal_distribution<float> dist(0.0f, 1.0f);
  const auto rows_of = [&](std::size_t rows) {
    std::vector<Half> v(rows * kHeads * kDim);
    for (auto& x : v) x = Half(dist(rng));
    return v;
  };

  // 60 committed rows, then a 7-row speculative block crossing the tile
  // boundary with sealing deferred.
  const auto base_k = rows_of(60), base_v = rows_of(60);
  const auto spec_k = rows_of(7), spec_v = rows_of(7);

  // A never-speculated twin holding exactly the context the first commit
  // below keeps (60 base rows + 5 accepted rows): after every rollback the
  // speculated cache must decode bit-identically to it.
  fs::PagedKvCache twin(pool);
  ASSERT_TRUE(twin.ensure_capacity(65));
  for (std::size_t l = 0; l < kLayers; ++l) {
    twin.append_chunk(l, base_k, base_v, 60);
    twin.append_chunk(l, {spec_k.data(), 5 * kDim}, {spec_v.data(), 5 * kDim},
                      5);
  }
  const auto q = rows_of(1);
  const auto expect_matches_twin = [&](const char* what) {
    for (std::size_t l = 0; l < kLayers; ++l) {
      std::vector<float> out(kDim), ref(kDim);
      fc::efta_decode_step(cache.slice(l, 0), q, out);
      fc::efta_decode_step(twin.slice(l, 0), q, ref);
      expect_bitwise_equal(out, ref, what);
    }
  };

  ASSERT_TRUE(cache.ensure_capacity(67));
  for (std::size_t l = 0; l < kLayers; ++l) {
    cache.append_chunk(l, base_k, base_v, 60);
  }
  for (std::size_t l = 0; l < kLayers; ++l) {
    cache.append_chunk(l, spec_k, spec_v, 7, /*defer_seal=*/true);
  }
  ASSERT_EQ(cache.layer_length(0), 67u);
  ASSERT_EQ(cache.block_table().size(), 2u);
  // Tile 0 filled mid-speculation: not sealed, no memo exposed.
  EXPECT_FALSE(pool.sealed(cache.block_table()[0]));
  EXPECT_EQ(cache.slice(0, 0).k_c1[0], nullptr);
  EXPECT_TRUE(cache.take_newly_sealed().empty());

  // Commit 5 of the 7 rows (accept 4 drafts): context 65, tile 0 now fully
  // committed — sealed at commit, memo exposed, reported for publication.
  const std::size_t in_use_before = pool.in_use();
  cache.truncate(65);
  EXPECT_EQ(cache.layer_length(0), 65u);
  EXPECT_EQ(cache.layer_length(1), 65u);
  EXPECT_TRUE(pool.sealed(cache.block_table()[0]));
  EXPECT_NE(cache.slice(0, 0).k_c1[0], nullptr);
  EXPECT_NE(cache.slice(1, 0).v_c2[0], nullptr);
  const auto sealed = cache.take_newly_sealed();
  ASSERT_EQ(sealed.size(), 1u);
  EXPECT_EQ(sealed[0], 0u);
  EXPECT_EQ(pool.in_use(), in_use_before);  // tile 1 still holds row 64
  // Rolled-back rows of the kept open tile read as zero padding.
  const fc::KvSlice sl = cache.slice(0, 0);
  for (std::size_t r = 1; r < fs::TilePool::kTileRows; ++r) {
    for (std::size_t c = 0; c < kDim; ++c) {
      ASSERT_EQ(sl.k_tiles[1][r * kDim + c].bits(), 0u) << r;
    }
  }
  expect_matches_twin("decode after partial commit");

  // Reject an entire follow-up draft that had opened a fresh tile: the
  // empty tail tile goes back to the pool.
  const auto spec2_k = rows_of(64), spec2_v = rows_of(64);
  ASSERT_TRUE(cache.ensure_capacity(65 + 64));
  ASSERT_EQ(cache.block_table().size(), 3u);
  for (std::size_t l = 0; l < kLayers; ++l) {
    cache.append_chunk(l, spec2_k, spec2_v, 64, /*defer_seal=*/true);
  }
  cache.truncate(65);  // reject all 64 speculative rows
  EXPECT_EQ(cache.block_table().size(), 2u);
  EXPECT_EQ(pool.in_use(), in_use_before);
  expect_matches_twin("decode after full rejection");

  // Rolling back into the sealed region is a logic error, not a rollback.
  EXPECT_THROW(cache.truncate(63), std::logic_error);
  cache.release_all();
  twin.release_all();
  EXPECT_EQ(pool.in_use(), 0u);
}

// ---------------------------------------------------------------------------
// Prompt-lookup drafter.
// ---------------------------------------------------------------------------

TEST(PromptLookup, ProposesContinuationOfRepeatedSuffix) {
  fs::PromptLookupProposer prop;
  constexpr std::size_t kH = 4;
  const auto row = [&](float v) { return std::vector<float>{v, v, v, v}; };
  // History: a b c a b — the trailing "b" matches at position 1, whose
  // continuation (c a b) fills 3 of the 4 requested rows.
  for (const float v : {1.f, 2.f, 3.f, 1.f, 2.f}) prop.observe(7, row(v));
  std::vector<float> out(4 * kH, 0.0f);
  ASSERT_EQ(prop.propose(7, 4, kH, out.data()), 3u);
  EXPECT_EQ(out[0], 3.f);
  EXPECT_EQ(out[kH], 1.f);
  EXPECT_EQ(out[2 * kH], 2.f);

  // A constant suffix unrolls to the full draft width: the backward scan
  // walks to an occurrence old enough to supply max_rows continuations.
  fs::PromptLookupProposer cprop;
  for (int i = 0; i < 6; ++i) cprop.observe(1, row(5.f));
  ASSERT_EQ(cprop.propose(1, 4, kH, out.data()), 4u);
  for (std::size_t r = 0; r < 4; ++r) EXPECT_EQ(out[r * kH], 5.f) << r;

  // No earlier occurrence -> no proposal; unknown request -> no proposal.
  fs::PromptLookupProposer fresh;
  for (const float v : {1.f, 2.f, 3.f}) fresh.observe(2, row(v));
  EXPECT_EQ(fresh.propose(2, 4, kH, out.data()), 0u);
  EXPECT_EQ(fresh.propose(99, 4, kH, out.data()), 0u);

  // reset() forgets the history.
  cprop.reset(1);
  EXPECT_EQ(cprop.propose(1, 4, kH, out.data()), 0u);
}

TEST(PromptLookup, MinMatchAndHistoryWindow) {
  constexpr std::size_t kH = 2;
  const auto row = [&](float a, float b) { return std::vector<float>{a, b}; };

  // min_match = 2: a single-row coincidence is not enough evidence.
  fs::PromptLookupProposer strict(fs::PromptLookupOptions{2, 0});
  // History: (1,1) (2,2) (9,9) (1,1) (2,2) — the 2-gram (1,1)(2,2) repeats.
  strict.observe(3, row(1, 1));
  strict.observe(3, row(2, 2));
  strict.observe(3, row(9, 9));
  strict.observe(3, row(1, 1));
  strict.observe(3, row(2, 2));
  std::vector<float> out(4 * kH, 0.0f);
  ASSERT_EQ(strict.propose(3, 4, kH, out.data()), 3u);
  EXPECT_EQ(out[0], 9.f);  // the row after the matched 2-gram

  // But a 1-gram-only repeat must not fire under min_match = 2.
  fs::PromptLookupProposer strict2(fs::PromptLookupOptions{2, 0});
  strict2.observe(4, row(1, 1));
  strict2.observe(4, row(2, 2));
  strict2.observe(4, row(1, 1));  // "1" repeats, "2 1" does not
  EXPECT_EQ(strict2.propose(4, 4, kH, out.data()), 0u);

  // max_history bounds memory: rows age out and stop matching.
  fs::PromptLookupProposer windowed(fs::PromptLookupOptions{1, 3});
  windowed.observe(5, row(7, 7));
  windowed.observe(5, row(8, 8));
  windowed.observe(5, row(1, 1));
  windowed.observe(5, row(2, 2));
  windowed.observe(5, row(7, 7));  // the old (7,7) has aged out
  EXPECT_EQ(windowed.propose(5, 4, kH, out.data()), 0u);
}

// ---------------------------------------------------------------------------
// Engine-level speculation.
// ---------------------------------------------------------------------------

TEST(Spec, RepetitiveStreamCommitsMultiTokenTicksBitIdentically) {
  const fx::Model model = constant_stream_model(0xabc1);
  const std::size_t hidden = model.config().hidden;
  const ft::MatrixF prompt = random_prompt(21, hidden, 0xfeed1);
  constexpr std::size_t kBudget = 24;

  auto run = [&](std::size_t spec_tokens, fs::DecodeEngine::StepStats& sum,
                 std::size_t& ticks) {
    fs::EngineOptions opt;
    opt.spec_tokens = spec_tokens;
    opt.record_inputs = true;
    auto engine = std::make_unique<fs::DecodeEngine>(model, opt);
    const auto id = engine->submit(prompt, kBudget);
    ticks = 0;
    while (engine->queued() != 0 || engine->active() != 0) {
      sum += engine->step();
      if (++ticks >= 500) break;
    }
    EXPECT_LT(ticks, 500u);
    EXPECT_EQ(engine->state(id), fs::RequestState::kRetired);
    EXPECT_EQ(engine->context_length(id), prompt.rows() + kBudget);
    return std::make_pair(std::move(engine), id);
  };

  fs::DecodeEngine::StepStats spec_sum, serial_sum;
  std::size_t spec_ticks = 0, serial_ticks = 0;
  auto [spec, sid] = run(4, spec_sum, spec_ticks);
  auto [serial, lid] = run(0, serial_sum, serial_ticks);

  // The committed stream and hidden states are the serial ones, bit for
  // bit — speculation changed the tick count, not the results.
  expect_same_stream(*spec, sid, *serial, lid);
  EXPECT_EQ(spec_sum.decoded, serial_sum.decoded);
  EXPECT_EQ(spec_sum.decoded, kBudget);

  // And it genuinely speculated: multi-token commits shrank the tick count
  // by at least 2x on this near-100%-acceptance workload.
  EXPECT_GT(spec_sum.spec_accepted, kBudget / 2);
  EXPECT_EQ(spec_sum.spec_proposed,
            spec_sum.spec_accepted + spec_sum.spec_rejected);
  EXPECT_LT(spec_ticks * 2, serial_ticks);
  EXPECT_EQ(serial_sum.spec_proposed, 0u);
}

TEST(Spec, WrongDrafterRejectsEverythingAndStaysBitIdentical) {
  // A hostile drafter proposes garbage every tick over a non-repetitive
  // stream: every draft is scored and rejected, open-tile truncation runs
  // at every context length — including 64-row tile boundaries — and the
  // committed stream must remain byte-for-byte the serial one.
  const fx::Model model(serving_config(), 0x7e57);
  const std::size_t hidden = model.config().hidden;
  const ft::MatrixF prompt = random_prompt(61, hidden, 0xfeed2);
  constexpr std::size_t kBudget = 12;  // crosses the 64-row boundary early

  fs::EngineOptions opt;
  opt.spec_tokens = 4;
  opt.record_inputs = true;
  opt.proposer = std::make_shared<RepeatLastProposer>();
  // Rejection rollback across a tile-seal boundary is only lossless for
  // fp16 tiles (re-opening a sealed kI8 tile restores dequantized, not
  // original, rows), so the byte-for-byte spec-vs-serial claim is an fp16
  // property — pin it against the FTT_KV_QUANT default flip.
  opt.kv_quant = false;
  fs::DecodeEngine spec(model, opt);
  const auto sid = spec.submit(prompt, kBudget);
  fs::DecodeEngine::StepStats sum;
  std::size_t ticks = 0;
  while (spec.queued() != 0 || spec.active() != 0) {
    sum += spec.step();
    ASSERT_LT(++ticks, 500u);
    // Rollback must leave exactly the committed context behind on every
    // tick: block-table tiles match ceil(tokens/64), nothing leaks.
    if (spec.is_active(sid)) {
      const std::size_t tokens = spec.context_length(sid);
      EXPECT_EQ(spec.kv_block_table(sid).size(), (tokens + 63) / 64);
    }
  }
  EXPECT_EQ(spec.state(sid), fs::RequestState::kRetired);
  EXPECT_EQ(spec.context_length(sid), prompt.rows() + kBudget);
  EXPECT_EQ(spec.kv_tiles_in_use(), 0u);

  // Whole drafts rejected, every tick that drafted; nothing ever accepted.
  EXPECT_GT(sum.spec_proposed, 0u);
  EXPECT_EQ(sum.spec_accepted, 0u);
  EXPECT_EQ(sum.spec_rejected, sum.spec_proposed);
  EXPECT_EQ(sum.decoded, kBudget);  // progress is exactly serial-rate

  fs::EngineOptions sopt;
  sopt.record_inputs = true;
  sopt.kv_quant = false;  // match the spec engine's pinned format
  fs::DecodeEngine serial(model, sopt);
  const auto lid = serial.submit(prompt, kBudget);
  serial.run_until_idle(nullptr, 500);
  expect_same_stream(spec, sid, serial, lid);
}

TEST(Spec, CommitAcrossTileBoundarySealsAndPublishes) {
  // Multi-token commits that cross a 64-row boundary seal the filled tile
  // at commit time (deferred sealing): the memoized encodings appear, and
  // later decode ticks consume them — bit-identically to the serial run.
  const fx::Model model = constant_stream_model(0xabc2);
  const std::size_t hidden = model.config().hidden;
  const ft::MatrixF prompt = random_prompt(58, hidden, 0xfeed3);

  fs::EngineOptions opt;
  opt.spec_tokens = 4;
  fs::DecodeEngine engine(model, opt);
  const auto id = engine.submit(prompt, 20);
  bool saw_sealed_generated_tile = false;
  std::size_t ticks = 0;
  while (engine.queued() != 0 || engine.active() != 0) {
    engine.step();
    ASSERT_LT(++ticks, 500u);
    if (engine.is_active(id) && engine.context_length(id) >= 64) {
      const auto table = engine.kv_block_table(id);
      ASSERT_FALSE(table.empty());
      if (engine.pool().sealed(table[0])) saw_sealed_generated_tile = true;
    }
  }
  EXPECT_TRUE(saw_sealed_generated_tile)
      << "the boundary-crossing commit never sealed tile 0";
  EXPECT_EQ(engine.context_length(id), 78u);
}

TEST(Spec, PreemptedMidSpeculationReplaysBitIdentically) {
  // A tight pool forces preemption while speculation is in flight.  Only
  // committed rows were ever observed or cached, so the readmitted request
  // replays its exact trajectory from the prompt — same final state as an
  // unpreempted solo run, bit for bit.
  const fx::Model model = constant_stream_model(0xabc3);
  const std::size_t hidden = model.config().hidden;

  fs::EngineOptions opt;
  opt.spec_tokens = 4;
  opt.scheduler.max_batch_size = 4;
  opt.scheduler.max_kv_tiles = 4;  // 3 bulk contexts + 1 spare
  opt.share_prefix = false;        // distinct prompts; keep the pool honest
  fs::DecodeEngine engine(model, opt);

  std::vector<ft::MatrixF> prompts;
  std::vector<fs::DecodeEngine::RequestId> bulk;
  for (std::size_t i = 0; i < 3; ++i) {
    prompts.push_back(random_prompt(40, hidden, 800 + i));
    bulk.push_back(engine.submit(prompts[i], 30, fs::Priority::kLow));
  }
  engine.drain(3);
  ASSERT_EQ(engine.active(), 3u);
  prompts.push_back(random_prompt(100, hidden, 900));
  const auto vip = engine.submit(prompts[3], 5, fs::Priority::kHigh);

  fs::DecodeEngine::StepStats stats;
  std::size_t ticks = 0;
  while (engine.queued() != 0 || engine.active() != 0) {
    stats += engine.step();
    ASSERT_LT(++ticks, 4000u);
  }
  (void)vip;
  EXPECT_GT(stats.preempted, 0u) << "pool was sized to force preemption";
  EXPECT_GT(stats.spec_accepted, 0u) << "speculation never engaged";

  for (std::size_t i = 0; i < 4; ++i) {
    const auto id = i < 3 ? bulk[i] : vip;
    const std::size_t budget = i < 3 ? 30 : 5;
    EXPECT_EQ(engine.state(id), fs::RequestState::kRetired) << i;
    EXPECT_EQ(engine.context_length(id), prompts[i].rows() + budget) << i;
    fs::DecodeEngine solo(model);  // serial, unshared, unpreempted
    const auto sid = solo.submit(prompts[i], budget);
    solo.run_until_idle(nullptr, 400);
    expect_bitwise_equal(engine.hidden(id), solo.hidden(sid), "replay");
  }
  EXPECT_EQ(engine.kv_tiles_in_use(), 0u);
}

TEST(Spec, SameFaultsSameStream) {
  // "Bit-identical under the same faults": thread an identical single-flip
  // injector through the first tick (the prefill, where the speculative
  // and serial engines execute the same call sequence on the same data) of
  // both runs.  The corrected-but-perturbed prompt KV then feeds every
  // later tick of both runs, speculation engages on one of them, and the
  // committed streams must still match bit for bit.
  const fx::Model model = constant_stream_model(0xabc4);
  const std::size_t hidden = model.config().hidden;
  const ft::MatrixF prompt = random_prompt(30, hidden, 0xfeed4);
  constexpr std::size_t kBudget = 16;

  auto run = [&](std::size_t spec_tokens) {
    fs::EngineOptions opt;
    opt.spec_tokens = spec_tokens;
    opt.record_inputs = true;
    auto engine = std::make_unique<fs::DecodeEngine>(model, opt);
    const auto id = engine->submit(prompt, kBudget);
    auto inj = ff::FaultInjector::single(ff::Site::kGemm1, 7, 30);
    const auto faulty = engine->step(&inj);  // tick 1: the whole prefill
    EXPECT_EQ(faulty.attention.faults_injected, 1u);
    EXPECT_GE(faulty.attention.total_detected(), 1u);
    engine->run_until_idle(nullptr, 500);
    EXPECT_EQ(engine->state(id), fs::RequestState::kRetired);
    return std::make_pair(std::move(engine), id);
  };

  auto [spec, sid] = run(4);
  auto [serial, lid] = run(0);
  EXPECT_GT(spec->lifetime().spec_accepted, 0u);
  expect_same_stream(*spec, sid, *serial, lid);
}

TEST(Spec, FaultMidSpeculationIsDetectedAndBounded) {
  // A flip landing inside a speculative block tick is detected and
  // corrected like any other decode fault; acceptance can only shrink
  // (a perturbed output cannot bit-match a clean draft), the engine keeps
  // running, budgets still land exactly, and the result stays within the
  // usual correction tolerance of a clean run.
  const fx::Model model = constant_stream_model(0xabc5);
  const std::size_t hidden = model.config().hidden;
  const ft::MatrixF prompt = random_prompt(20, hidden, 0xfeed5);
  constexpr std::size_t kBudget = 14;

  fs::EngineOptions opt;
  opt.spec_tokens = 4;
  fs::DecodeEngine faulty(model, opt);
  const auto fid = faulty.submit(prompt, kBudget);
  faulty.drain(4);  // prefill + a few speculative ticks
  auto inj = ff::FaultInjector::single(ff::Site::kGemm2, 3, 28);
  const auto st = faulty.step(&inj);
  EXPECT_EQ(st.attention.faults_injected, 1u);
  EXPECT_GE(st.attention.total_detected(), 1u);
  faulty.run_until_idle(nullptr, 500);
  EXPECT_EQ(faulty.state(fid), fs::RequestState::kRetired);
  EXPECT_EQ(faulty.context_length(fid), prompt.rows() + kBudget);

  fs::DecodeEngine clean(model, opt);
  const auto cid = clean.submit(prompt, kBudget);
  clean.run_until_idle(nullptr, 500);
  const auto hf = faulty.hidden(fid);
  const auto hc = clean.hidden(cid);
  ASSERT_EQ(hf.size(), hc.size());
  for (std::size_t c = 0; c < hf.size(); ++c) {
    EXPECT_NEAR(hf[c], hc[c], 1e-2f) << c;
  }
}

TEST(Spec, RandomizedStressAgainstSerialWithAccounting) {
  // Mixed fleet — repetitive and non-repetitive prompts, ragged lengths,
  // staggered budgets — through one speculative engine; every retired
  // stream bit-matches a serial (spec-off) engine run of the same traffic,
  // and the lifetime stats balance field by field.
  const fx::Model model = constant_stream_model(0xaced5);
  const std::size_t hidden = model.config().hidden;
  std::mt19937_64 rng(20260726);
  std::uniform_int_distribution<std::size_t> len_dist(1, 90);
  std::uniform_int_distribution<std::size_t> budget_dist(1, 20);
  constexpr std::size_t kRequests = 7;

  std::vector<ft::MatrixF> prompts;
  std::vector<std::size_t> budgets;
  for (std::size_t i = 0; i < kRequests; ++i) {
    prompts.push_back(random_prompt(len_dist(rng), hidden, 7100 + i));
    budgets.push_back(budget_dist(rng));
  }

  auto run = [&](std::size_t spec_tokens, fs::DecodeEngine::StepStats& sum) {
    fs::EngineOptions opt;
    opt.spec_tokens = spec_tokens;
    opt.record_inputs = true;
    opt.scheduler.max_batch_size = 4;
    auto engine = std::make_unique<fs::DecodeEngine>(model, opt);
    std::vector<fs::DecodeEngine::RequestId> ids;
    for (std::size_t i = 0; i < kRequests; ++i) {
      ids.push_back(engine->submit(prompts[i], budgets[i]));
    }
    std::size_t ticks = 0;
    while (engine->queued() != 0 || engine->active() != 0) {
      sum += engine->step();
      if (++ticks >= 2000) break;
    }
    EXPECT_LT(ticks, 2000u);
    return std::make_pair(std::move(engine), ids);
  };

  fs::DecodeEngine::StepStats spec_sum, serial_sum;
  auto [spec, sids] = run(3, spec_sum);
  auto [serial, lids] = run(0, serial_sum);
  for (std::size_t i = 0; i < kRequests; ++i) {
    expect_same_stream(*spec, sids[i], *serial, lids[i]);
  }

  // Traffic totals are schedule- and speculation-invariant.
  std::size_t total_budget = 0, total_prompt = 0;
  for (std::size_t i = 0; i < kRequests; ++i) {
    total_budget += budgets[i];
    total_prompt += prompts[i].rows();
  }
  EXPECT_EQ(spec_sum.decoded, total_budget);
  EXPECT_EQ(serial_sum.decoded, total_budget);
  EXPECT_EQ(spec_sum.prefill_rows, total_prompt);
  EXPECT_EQ(spec_sum.active, total_prompt + total_budget);
  EXPECT_GT(spec_sum.spec_accepted, 0u);
  EXPECT_EQ(spec_sum.spec_proposed,
            spec_sum.spec_accepted + spec_sum.spec_rejected);

  // Lifetime accounting equals the per-step sum, speculation included.
  const auto& life = spec->lifetime();
  EXPECT_EQ(life.active, spec_sum.active);
  EXPECT_EQ(life.decoded, spec_sum.decoded);
  EXPECT_EQ(life.spec_proposed, spec_sum.spec_proposed);
  EXPECT_EQ(life.spec_accepted, spec_sum.spec_accepted);
  EXPECT_EQ(life.spec_rejected, spec_sum.spec_rejected);
  EXPECT_EQ(life.attention.gemm1.checks, spec_sum.attention.gemm1.checks);
  EXPECT_EQ(life.linear.checks, spec_sum.linear.checks);
}

TEST(Spec, RejectsBadOptions) {
  const fx::Model model(serving_config(), 0x55);
  fs::EngineOptions opt;
  opt.spec_tokens = 64;  // 1 + 64 rows would overflow the kernel block
  EXPECT_THROW(fs::DecodeEngine(model, opt), std::invalid_argument);
  opt.spec_tokens = 63;  // largest legal block
  EXPECT_NO_THROW(fs::DecodeEngine(model, opt));
  EXPECT_THROW(fs::PromptLookupProposer(fs::PromptLookupOptions{0, 0}),
               std::invalid_argument);
  // A proposer with speculation off would be silently ignored: fail fast.
  fs::EngineOptions contradictory;
  contradictory.proposer = std::make_shared<RepeatLastProposer>();
  EXPECT_THROW(fs::DecodeEngine(model, contradictory),
               std::invalid_argument);
}
