// Golden bits: the served output of a fixed engine fleet, pinned as hashes.
//
// Every optimization of the tick's compute (linear packing, checksum
// sealing, KV layout) must leave the served bits, the ABFT report counters
// and the fault-hook call counts exactly where they were.  The fleet below
// runs three ways — clean, with single-bit flips on a subset of ticks, and
// with flips plus tick retry — and each run folds every request's final
// hidden row, the lifetime linear/attention reports and the injector call
// counts into one 64-bit hash.  The clean value was recorded from the
// engine before the protected linears were sealed at construction; a
// mismatch means a change moved a served bit or a hook.  The injected and
// retry values were re-recorded when injected calls moved onto the sealed
// linears and KV tiers: their kChecksum strikes now land on checksum-GEMM
// outputs and fresh tail encodes only, since sealed checksums are read,
// never re-encoded.
//
// The ComputeSites fleets strike only the sites that fire on computed
// values (linear and attention GEMM outputs, EXP) and hash every hook count
// except kChecksum — the one site whose hook set depends on which operands
// a tick re-encodes rather than reads sealed.  They pin that a change in
// where checksums come from moves no served bit, report counter or compute
// hook, for fp16 tiles and for int8 tiles.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "fault/fault.hpp"
#include "serve/engine.hpp"
#include "tensor/random.hpp"
#include "transformer/model.hpp"

namespace fs = ftt::serve;
namespace ff = ftt::fault;
namespace ft = ftt::tensor;
namespace ftx = ftt::transformer;

namespace {

struct Hash {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  void add(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  }
  void add(std::uint64_t v) { add(&v, sizeof v); }
};

enum class Run { kClean, kInjected, kRetry, kComputeSites };

void add(Hash& h, const ftt::abft::Report& r) {
  h.add(r.checks);
  h.add(r.flagged);
  h.add(r.corrected);
  h.add(r.uncorrectable);
  h.add(r.checksum_repairs);
  h.add(r.recomputed);
}

/// The ComputeSites campaign: every tick strikes one of the compute sites
/// (faulty_mixed's four), cycling through them.
ff::FaultInjector compute_site_injector(std::size_t t) {
  constexpr ff::Site kSites[] = {ff::Site::kLinear, ff::Site::kGemm1,
                                 ff::Site::kExp, ff::Site::kGemm2};
  return ff::FaultInjector::single(kSites[t % 4], 50 + 41 * t, 30);
}

/// Serve the fixed fleet and hash what it produced.  `kv_quant` picks the
/// sealed tile format (fp16 or int8) regardless of the environment.
std::uint64_t serve_fleet(Run run, bool kv_quant = false) {
  const ftx::ModelConfig cfg{"golden", 2, 128, 2, 256, /*causal=*/true};
  const ftx::Model model(cfg, 2024);
  fs::EngineOptions opt;
  opt.kv_quant = kv_quant;
  if (run == Run::kRetry) {
    opt.recovery.max_tick_retries = 2;
    opt.recovery.retry_on = fs::RetryTrigger::kAnyDetection;
  }
  fs::DecodeEngine eng(model, opt);

  // Ragged prompts; the first three share a 128-row (two-tile) prefix.  The
  // third arrives after the first has sealed and published that prefix, so
  // prefix attach is on the path too.
  const std::vector<std::size_t> rows = {150, 200, 131, 40, 90};
  const std::vector<std::size_t> budgets = {6, 4, 7, 9, 5};
  ft::MatrixF prefix(128, cfg.hidden);
  ft::fill_normal(prefix, 77);
  auto submit = [&](std::size_t i) {
    ft::MatrixF p(rows[i], cfg.hidden);
    ft::fill_normal(p, 100 + i);
    if (i < 3) {
      std::memcpy(p.data(), prefix.data(), prefix.size() * sizeof(float));
    }
    return eng.submit(p, budgets[i]);
  };
  std::vector<fs::DecodeEngine::RequestId> ids;
  for (const std::size_t i : {0, 1, 3, 4}) ids.push_back(submit(i));

  Hash h;
  std::uint64_t linear_calls = 0, checksum_calls = 0, flips = 0;
  std::uint64_t site_calls[ff::kSiteCount] = {};
  for (std::size_t t = 0; eng.queued() + eng.active() > 0; ++t) {
    if (t == 4) ids.push_back(submit(2));
    if (run == Run::kComputeSites) {
      auto inj = compute_site_injector(t);
      (void)eng.step(&inj);
      for (std::size_t s = 0; s < ff::kSiteCount; ++s) {
        site_calls[s] += inj.calls(static_cast<ff::Site>(s));
      }
      flips += inj.injected();
    } else if (run != Run::kClean && t % 3 == 1) {
      // Alternate the struck site between the linear payload and the
      // checksum pipeline; the ordinal lands inside every tick's range.
      auto inj = t % 2 == 1
                     ? ff::FaultInjector::single(ff::Site::kLinear,
                                                 1000 + 97 * t, 27 + t % 4)
                     : ff::FaultInjector::single(ff::Site::kChecksum,
                                                 2000 + 53 * t, 28);
      (void)eng.step(&inj);
      linear_calls += inj.calls(ff::Site::kLinear);
      checksum_calls += inj.calls(ff::Site::kChecksum);
      flips += inj.injected();
    } else {
      (void)eng.step();
    }
  }
  for (const auto id : ids) {
    const auto hid = eng.hidden(id);
    h.add(hid.data(), hid.size() * sizeof(float));
    h.add(static_cast<std::uint64_t>(eng.health(id)));
  }
  const auto& life = eng.lifetime();
  if (run == Run::kComputeSites) {
    add(h, life.linear);
    add(h, life.attention.gemm1);
    add(h, life.attention.exp_check);
    add(h, life.attention.gemm2);
    h.add(life.attention.range_corrections);
    h.add(life.attention.faults_injected);
    h.add(life.retried);
    h.add(life.shared_tiles);
    for (std::size_t s = 0; s < ff::kSiteCount; ++s) {
      if (static_cast<ff::Site>(s) != ff::Site::kChecksum) {
        h.add(site_calls[s]);
      }
    }
    h.add(flips);
    EXPECT_GT(flips, 0u);
    EXPECT_GT(life.linear.flagged + life.attention.total_detected(), 0u);
    return h.h;
  }
  h.add(life.linear.checks);
  h.add(life.linear.flagged);
  h.add(life.linear.corrected);
  h.add(life.linear.uncorrectable);
  h.add(life.linear.checksum_repairs);
  h.add(life.attention.total_detected());
  h.add(life.retried);
  h.add(life.shared_tiles);
  h.add(linear_calls);
  h.add(checksum_calls);
  h.add(flips);
  if (run != Run::kClean) {
    // The campaign must actually strike, and be seen, for the hash to pin
    // the detection and recovery paths.
    EXPECT_GT(flips, 0u);
    EXPECT_GT(life.linear.flagged, 0u);
  }
  if (run == Run::kRetry) {
    EXPECT_GT(life.retried, 0u);
  }
  return h.h;
}

}  // namespace

TEST(GoldenBits, CleanFleet) {
  EXPECT_EQ(serve_fleet(Run::kClean), 14938288773679396691ull);
}

TEST(GoldenBits, InjectedFleet) {
  EXPECT_EQ(serve_fleet(Run::kInjected), 17538700887809414308ull);
}

TEST(GoldenBits, RetryFleet) {
  EXPECT_EQ(serve_fleet(Run::kRetry), 10624416027754564570ull);
}

TEST(GoldenBits, ComputeSitesFleet) {
  EXPECT_EQ(serve_fleet(Run::kComputeSites), 2470938202104416689ull);
}

TEST(GoldenBits, ComputeSitesI8Fleet) {
  EXPECT_EQ(serve_fleet(Run::kComputeSites, /*kv_quant=*/true),
            3962916221494474239ull);
}
