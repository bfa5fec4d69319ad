// Protected linear layers (feed-forward substrate).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "abft/strided_abft.hpp"
#include "tensor/random.hpp"
#include "transformer/linear.hpp"

namespace ftx = ftt::transformer;
namespace ft = ftt::tensor;
namespace ff = ftt::fault;

TEST(Linear, ShapeAndDeterminism) {
  ftx::Linear l(128, 256, 42);
  EXPECT_EQ(l.in_features(), 128u);
  EXPECT_EQ(l.out_features(), 256u);
  ftx::Linear l2(128, 256, 42);
  const auto w = l.weight(), w2 = l2.weight();
  ASSERT_EQ(w.rows(), 256u);
  ASSERT_EQ(w.cols(), 128u);
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_EQ(w.data()[i].bits(), w2.data()[i].bits());
  }
}

TEST(Linear, RejectsMisalignedOut) {
  EXPECT_THROW(ftx::Linear(128, 100, 1), std::invalid_argument);
}

TEST(Linear, MatchesReference) {
  ftx::Linear l(64, 64, 7);
  ft::MatrixF x(8, 64);
  ft::fill_normal(x, 8);
  ft::MatrixF y(8, 64);
  l.forward(x, y);
  const auto w = l.weight();
  // Reference: fp16-rounded x times fp16 weights, fp32 accumulate, + bias.
  for (std::size_t r = 0; r < 8; ++r) {
    for (std::size_t c = 0; c < 64; ++c) {
      float acc = 0.0f;
      for (std::size_t k = 0; k < 64; ++k) {
        acc += ftt::numeric::round_to_half(x(r, k)) * w(c, k).to_float();
      }
      EXPECT_NEAR(y(r, c), acc, 0.1f) << r << "," << c;  // reference omits the bias
    }
  }
}

TEST(Linear, ProtectedEqualsUnprotectedCleanRun) {
  ftx::Linear l(128, 128, 9);
  ft::MatrixF x(16, 128);
  ft::fill_normal(x, 10);
  ft::MatrixF y0(16, 128), y1(16, 128);
  l.forward(x, y0, ftx::LinearProtect::kNone);
  const auto rep = l.forward(x, y1, ftx::LinearProtect::kStridedAbft);
  EXPECT_EQ(rep.flagged, 0u);
  EXPECT_LT(ft::max_abs_diff(y0, y1), 1e-6f);
}

TEST(Linear, CorrectsInjectedFault) {
  ftx::Linear l(128, 128, 11);
  ft::MatrixF x(16, 128);
  ft::fill_normal(x, 12);
  ft::MatrixF ref(16, 128), y(16, 128);
  l.forward(x, ref);
  auto inj = ff::FaultInjector::single(ff::Site::kLinear, 1000, 28);
  const auto rep = l.forward(x, y, ftx::LinearProtect::kStridedAbft, &inj);
  EXPECT_EQ(inj.injected(), 1u);
  EXPECT_EQ(rep.corrected, 1u);
  EXPECT_LT(ft::max_abs_diff(ref, y), 1e-2f);
}

TEST(Linear, UnprotectedFaultPropagates) {
  // Negative control: without ABFT the same flip visibly corrupts output.
  ftx::Linear l(128, 128, 13);
  ft::MatrixF x(16, 128);
  ft::fill_normal(x, 14);
  ft::MatrixF ref(16, 128), y(16, 128);
  l.forward(x, ref);
  auto inj = ff::FaultInjector::single(ff::Site::kLinear, 1000, 30);
  l.forward(x, y, ftx::LinearProtect::kNone, &inj);
  EXPECT_GT(ft::max_abs_diff(ref, y), 1.0f);
}

TEST(Linear, WideLayerProtection) {
  // FFN-shaped layer (wide output, multi-tile checksums).
  ftx::Linear l(64, 256, 15);
  ft::MatrixF x(8, 64);
  ft::fill_normal(x, 16);
  ft::MatrixF ref(8, 256), y(8, 256);
  l.forward(x, ref);
  auto inj = ff::FaultInjector::single(ff::Site::kLinear, 1777, 27);
  const auto rep = l.forward(x, y, ftx::LinearProtect::kStridedAbft, &inj);
  EXPECT_EQ(rep.corrected, 1u);
  EXPECT_LT(ft::max_abs_diff(ref, y), 1e-2f);
}

TEST(LinearCosts, ScaleWithShape) {
  ftx::Linear small(64, 64, 17), big(256, 256, 18);
  EXPECT_LT(small.costs(8).total().tc_flops, big.costs(8).total().tc_flops);
  EXPECT_LT(small.protection_costs(8).total().tc_flops,
            big.protection_costs(8).total().tc_flops);
  // Protection is a small fraction of the payload.
  EXPECT_LT(big.protection_costs(128).total().tc_flops,
            big.costs(128).total().tc_flops);
}

namespace {

bool same_bits(const ft::MatrixF& a, const ft::MatrixF& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

bool same_bits(const ft::MatrixH& a, const ft::MatrixH& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.data()[i].bits() != b.data()[i].bits()) return false;
  }
  return true;
}

void expect_same_report(const ftt::abft::Report& a,
                        const ftt::abft::Report& b) {
  EXPECT_EQ(a.checks, b.checks);
  EXPECT_EQ(a.flagged, b.flagged);
  EXPECT_EQ(a.corrected, b.corrected);
  EXPECT_EQ(a.recomputed, b.recomputed);
  EXPECT_EQ(a.checksum_repairs, b.checksum_repairs);
  EXPECT_EQ(a.uncorrectable, b.uncorrectable);
}

}  // namespace

TEST(LinearSealed, WeightFlipAtRestIsFlaggedAndCorrected) {
  // One exponent bit of one weight flips after the layer was sealed.  The
  // unprotected output moves by thousands; the protected forward flags the
  // struck column in every row and reconstructs it from the sealed
  // checksums, leaving every other column bit-identical to the clean layer.
  constexpr std::size_t kRow = 37, kCol = 101;
  constexpr unsigned kBit = 14;  // top fp16 exponent bit
  const ftx::Linear clean(256, 256, 21);
  ASSERT_EQ(clean.weight()(kRow, kCol).bits() & (1u << kBit), 0u);
  ftx::Linear hit(256, 256, 21);
  ftx::testing::flip_weight_bit(hit, kRow, kCol, kBit);

  ft::MatrixF x(8, 256);
  ft::fill_normal(x, 22);
  ft::MatrixF ref, raw, y;
  const auto clean_rep = clean.forward(x, ref, ftx::LinearProtect::kStridedAbft);
  ASSERT_EQ(clean_rep.flagged, 0u);
  hit.forward(x, raw, ftx::LinearProtect::kNone);
  EXPECT_GT(ft::max_abs_diff(ref, raw), 100.0f);

  const auto rep = hit.forward(x, y, ftx::LinearProtect::kStridedAbft);
  EXPECT_EQ(rep.flagged, x.rows());
  EXPECT_EQ(rep.corrected, x.rows());
  EXPECT_EQ(rep.uncorrectable, 0u);
  for (std::size_t r = 0; r < y.rows(); ++r) {
    for (std::size_t c = 0; c < y.cols(); ++c) {
      if (c == kRow) {
        // Rebuilt from the fp16-rounded checksum: equal to the clean value
        // up to the checksum's rounding, not bit for bit.
        EXPECT_NEAR(y(r, c), ref(r, c), 1e-2f) << r;
      } else {
        EXPECT_EQ(y(r, c), ref(r, c)) << r << "," << c;
      }
    }
  }
  // A call carrying an injector (disarmed: no flips) runs the same sealed
  // GEMMs, so it flags and corrects the weight corrupted at rest exactly as
  // the clean call does.
  ft::MatrixF yi;
  ff::FaultInjector disarmed;
  const auto ri =
      hit.forward(x, yi, ftx::LinearProtect::kStridedAbft, &disarmed);
  expect_same_report(rep, ri);
  EXPECT_TRUE(same_bits(y, yi));
  // The weight itself stays corrupt: correction is per call.
  EXPECT_NE(hit.weight()(kRow, kCol).bits(), clean.weight()(kRow, kCol).bits());
}

TEST(LinearSealed, SealedPathEqualsPerCallPath) {
  // Every call runs the sealed GEMMs.  The reference is the per-call encode
  // path, StridedAbft::gemm_nt over the de-transposed weight (plus the
  // bias): the sealed call, with or without a (disarmed) injector, must
  // produce its bits, its Report and its kLinear hook count.  Only the
  // kChecksum count differs: the sealed call fires on its checksum-GEMM
  // outputs alone, M x 2s per tile, while the reference also fires on the
  // weight encodes it recomputes.  A near-zero threshold makes rounding
  // noise flag, so the Report comparison is not vacuous.
  const ftx::Linear l(256, 1024, 23);
  ft::MatrixF x(7, 256);
  ft::fill_normal(x, 24);
  ft::MatrixH xh(x.rows(), x.cols());
  for (std::size_t i = 0; i < x.size(); ++i) {
    xh.data()[i] = ftt::numeric::Half(x.data()[i]);
  }
  for (const float thr : {0.02f, 1e-7f}) {
    ft::MatrixF ys, yi, yr(x.rows(), l.out_features());
    ff::FaultInjector disarmed, reference;
    const auto rs = l.forward(x, ys, ftx::LinearProtect::kStridedAbft,
                              nullptr, thr);
    const auto ri = l.forward(x, yi, ftx::LinearProtect::kStridedAbft,
                              &disarmed, thr);
    const auto rr = ftt::abft::StridedAbft::gemm_nt(
        xh, l.weight(), yr, ftt::abft::StridedAbft::kDefaultStride, thr,
        &reference, ff::Site::kLinear);
    for (std::size_t r = 0; r < yr.rows(); ++r) {
      for (std::size_t c = 0; c < yr.cols(); ++c) yr(r, c) += l.bias()[c];
    }
    EXPECT_TRUE(same_bits(ys, yi)) << thr;
    EXPECT_TRUE(same_bits(ys, yr)) << thr;
    expect_same_report(rs, ri);
    expect_same_report(rs, rr);
    EXPECT_EQ(rs.checks, 7u * 8u * (1024u / 64u));
    if (thr < 1e-3f) {
      EXPECT_GT(rs.flagged, 0u);
    }
    EXPECT_EQ(disarmed.calls(ff::Site::kLinear), 7168u);
    EXPECT_EQ(reference.calls(ff::Site::kLinear), 7168u);
    EXPECT_EQ(disarmed.calls(ff::Site::kChecksum), 7u * 16u * 16u);
    EXPECT_EQ(reference.calls(ff::Site::kChecksum), 67328u);
  }
  // Unprotected: the hooks fire once per output on the same bits.
  ft::MatrixF ys, yi;
  ff::FaultInjector disarmed;
  l.forward(x, ys, ftx::LinearProtect::kNone);
  l.forward(x, yi, ftx::LinearProtect::kNone, &disarmed);
  EXPECT_TRUE(same_bits(ys, yi));
  EXPECT_EQ(disarmed.calls(ff::Site::kLinear), 7168u);
  EXPECT_EQ(disarmed.calls(ff::Site::kChecksum), 0u);
}

TEST(LinearSealed, SlicesCarryAFreshSealOfTheirWeights) {
  const ftx::Linear l(192, 256, 25);
  const auto w = l.weight();
  EXPECT_TRUE(same_bits(ftx::testing::sealed_checksums(l),
                        ftx::testing::seal_checksums(w)));

  const auto so = l.slice_out(64, 128);
  const auto wo = so.weight();
  ASSERT_EQ(wo.rows(), 128u);
  ASSERT_EQ(wo.cols(), 192u);
  for (std::size_t n = 0; n < 128; ++n) {
    for (std::size_t k = 0; k < 192; ++k) {
      ASSERT_EQ(wo(n, k).bits(), w(64 + n, k).bits());
    }
  }
  EXPECT_TRUE(same_bits(ftx::testing::sealed_checksums(so),
                        ftx::testing::seal_checksums(wo)));

  const auto si = l.slice_in(40, 100);
  const auto wi = si.weight();
  ASSERT_EQ(wi.rows(), 256u);
  ASSERT_EQ(wi.cols(), 100u);
  for (std::size_t n = 0; n < 256; ++n) {
    for (std::size_t k = 0; k < 100; ++k) {
      ASSERT_EQ(wi(n, k).bits(), w(n, 40 + k).bits());
    }
  }
  EXPECT_TRUE(same_bits(ftx::testing::sealed_checksums(si),
                        ftx::testing::seal_checksums(wi)));
  EXPECT_TRUE(si.bias().empty());

  // The empty column shard is valid and computes nothing.
  const auto empty = l.slice_out(0, 0);
  ft::MatrixF x(3, 192), y;
  ft::fill_normal(x, 26);
  EXPECT_EQ(empty.forward(x, y, ftx::LinearProtect::kStridedAbft).checks, 0u);
  EXPECT_EQ(y.cols(), 0u);
}
