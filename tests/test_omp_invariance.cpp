// OpenMP thread-count invariance: the batched decode kernel partitions
// *independent* (request, head) work items across threads — no shared
// accumulator ever crosses an item boundary — so its outputs and its
// merged / per-item FtReports must be bit-identical for any OpenMP team
// size.  This suite pins that down for OMP_NUM_THREADS in {1, 2, 8} at the
// kernel level and at the full serving-engine level; scripts/run_tier1.sh
// additionally re-runs it under an OMP_NUM_THREADS matrix from the outside.
#include <gtest/gtest.h>

#include <omp.h>

#include <deque>
#include <random>
#include <vector>

#include "core/decode.hpp"
#include "kv_fixture.hpp"
#include "serve/engine.hpp"
#include "tensor/random.hpp"
#include "transformer/model.hpp"

namespace fa = ftt::attention;
namespace fc = ftt::core;
namespace fs = ftt::serve;
namespace ft = ftt::tensor;
namespace fx = ftt::transformer;
using ftt::numeric::Half;

// This suite *forces* multi-thread OpenMP teams via omp_set_num_threads,
// which defeats the TSan leg's OMP_NUM_THREADS=1 guard: libgomp is not
// TSan-instrumented, so its critical sections / barriers are invisible and
// every properly-synchronized OMP reduction reads as a race.  The property
// under test here is numeric (bit-invariance), already covered by the
// plain and OMP-matrix ctest legs; under TSan the suite skips itself so
// the sanitizer leg stays focused on the raw shard/router threads it can
// actually check.
#if defined(__SANITIZE_THREAD__)
#define FTT_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define FTT_TSAN_BUILD 1
#endif
#endif
#if defined(FTT_TSAN_BUILD)
#define FTT_SKIP_UNDER_TSAN() \
  GTEST_SKIP() << "OMP teams under TSan: libgomp sync is uninstrumented"
#else
#define FTT_SKIP_UNDER_TSAN() (void)0
#endif

namespace {

constexpr int kThreadCounts[] = {1, 2, 8};

fx::ModelConfig serving_config() {
  fx::ModelConfig cfg = fx::ModelConfig::tiny();
  cfg.causal = true;
  return cfg;
}

/// Restore the ambient thread count after each test so suites stay
/// independent of execution order.
class OmpGuard {
 public:
  OmpGuard() : saved_(omp_get_max_threads()) {}
  ~OmpGuard() { omp_set_num_threads(saved_); }

 private:
  int saved_;
};

}  // namespace

TEST(OmpInvariance, DecodeBatchBitIdenticalAcrossThreadCounts) {
  FTT_SKIP_UNDER_TSAN();
  OmpGuard guard;
  const std::size_t lengths[] = {200, 65, 64, 1, 130};
  constexpr std::size_t kHeads = 4, kDim = 32;
  std::deque<kvtest::PagedKv> caches;
  for (std::size_t i = 0; i < std::size(lengths); ++i) {
    caches.emplace_back(kHeads, kDim);
    kvtest::fill_cache(caches.back(), lengths[i], 900 + i);
  }
  const std::size_t items_n = caches.size() * kHeads;
  std::vector<std::vector<Half>> queries(items_n, std::vector<Half>(kDim));
  for (std::size_t i = 0; i < items_n; ++i) {
    std::mt19937_64 rng(7100 + i);
    std::normal_distribution<float> dist(0.0f, 1.0f);
    for (auto& x : queries[i]) x = Half(dist(rng));
  }

  std::vector<std::vector<float>> ref_out;
  std::vector<fa::FtReport> ref_item;
  fa::FtReport ref_total;

  for (std::size_t t = 0; t < std::size(kThreadCounts); ++t) {
    omp_set_num_threads(kThreadCounts[t]);
    std::vector<std::vector<float>> out(items_n,
                                        std::vector<float>(kDim, 0.0f));
    std::vector<fc::DecodeWorkItem> items;
    for (std::size_t r = 0; r < caches.size(); ++r) {
      for (std::size_t h = 0; h < kHeads; ++h) {
        const std::size_t i = r * kHeads + h;
        items.push_back(fc::DecodeWorkItem{caches[r].slice(h),
                                           queries[i].data(),
                                           out[i].data()});
      }
    }
    std::vector<fa::FtReport> per_item(items_n);
    const fa::FtReport total =
        fc::efta_decode_batch(items, {}, nullptr, per_item);

    if (t == 0) {
      ref_out = out;
      ref_item = per_item;
      ref_total = total;
      continue;
    }
    for (std::size_t i = 0; i < items_n; ++i) {
      for (std::size_t c = 0; c < kDim; ++c) {
        EXPECT_EQ(out[i][c], ref_out[i][c])
            << kThreadCounts[t] << " threads, item " << i << " c " << c;
      }
      EXPECT_EQ(per_item[i].gemm1.checks, ref_item[i].gemm1.checks);
      EXPECT_EQ(per_item[i].gemm2.checks, ref_item[i].gemm2.checks);
      EXPECT_EQ(per_item[i].total_detected(), ref_item[i].total_detected());
    }
    EXPECT_EQ(total.gemm1.checks, ref_total.gemm1.checks);
    EXPECT_EQ(total.exp_check.checks, ref_total.exp_check.checks);
    EXPECT_EQ(total.gemm2.checks, ref_total.gemm2.checks);
    EXPECT_EQ(total.total_detected(), ref_total.total_detected());
    EXPECT_EQ(total.total_corrected(), ref_total.total_corrected());
  }
}

TEST(OmpInvariance, EngineRunBitIdenticalAcrossThreadCounts) {
  FTT_SKIP_UNDER_TSAN();
  OmpGuard guard;
  const fx::Model model(serving_config(), 0x0317);
  const std::size_t hidden = model.config().hidden;
  ft::MatrixF p0(90, hidden), p1(17, hidden);
  ft::fill_normal(p0, 61);
  ft::fill_normal(p1, 62);

  std::vector<std::vector<float>> ref;
  fs::StepStats ref_stats;

  for (std::size_t t = 0; t < std::size(kThreadCounts); ++t) {
    omp_set_num_threads(kThreadCounts[t]);
    fs::EngineOptions opt;
    opt.spec_tokens = 2;
    fs::DecodeEngine engine(model, opt);
    const auto a = engine.submit(p0, 6);
    const auto b = engine.submit(p1, 8);
    const fs::StepStats stats = engine.run_until_idle(nullptr, 10000);
    std::vector<std::vector<float>> h;
    h.emplace_back(engine.hidden(a).begin(), engine.hidden(a).end());
    h.emplace_back(engine.hidden(b).begin(), engine.hidden(b).end());

    if (t == 0) {
      ref = h;
      ref_stats = stats;
      continue;
    }
    EXPECT_EQ(stats.decoded, ref_stats.decoded);
    EXPECT_EQ(stats.spec_accepted, ref_stats.spec_accepted);
    EXPECT_EQ(stats.attention.gemm1.checks,
              ref_stats.attention.gemm1.checks);
    EXPECT_EQ(stats.attention.total_detected(),
              ref_stats.attention.total_detected());
    for (std::size_t r = 0; r < h.size(); ++r) {
      ASSERT_EQ(h[r].size(), ref[r].size());
      for (std::size_t c = 0; c < h[r].size(); ++c) {
        EXPECT_EQ(h[r][c], ref[r][c])
            << kThreadCounts[t] << " threads, request " << r << " c " << c;
      }
    }
  }
}

TEST(OmpInvariance, ShardedEngineIndependentOfOmpTeamSize) {
  FTT_SKIP_UNDER_TSAN();
  // Shard workers are raw threads; the head-range kernel they call is
  // serial by design (no nested OpenMP team).  The ambient OpenMP setting
  // therefore must not leak into a sharded run's results.
  OmpGuard guard;
  const fx::Model model(serving_config(), 0x0318);
  const std::size_t hidden = model.config().hidden;
  ft::MatrixF prompt(50, hidden);
  ft::fill_normal(prompt, 63);

  std::vector<float> ref;
  for (std::size_t t = 0; t < std::size(kThreadCounts); ++t) {
    omp_set_num_threads(kThreadCounts[t]);
    fs::EngineOptions opt;
    opt.shards = 2;
    fs::DecodeEngine engine(model, opt);
    const auto id = engine.submit(prompt, 5);
    engine.run_until_idle(nullptr, 10000);
    std::vector<float> h(engine.hidden(id).begin(), engine.hidden(id).end());
    if (t == 0) {
      ref = h;
      continue;
    }
    ASSERT_EQ(h.size(), ref.size());
    for (std::size_t c = 0; c < h.size(); ++c) {
      EXPECT_EQ(h[c], ref[c]) << kThreadCounts[t] << " threads, c " << c;
    }
  }
}
