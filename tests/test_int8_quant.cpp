// Int8 quantized KV tiles: SIMD/scalar kernel bit-identity, EXACT integer
// checksum verification (equality, zero threshold), the sealed-encoding
// exactness lemma, TilePool/PagedKvCache/engine integration and the
// mixed-format pool invariants.
//
// The load-bearing property is the power-of-two scale: dequantization is an
// exponent shift (exact), so the dequantized tile's fp16 strided encodings
// are bit-equal to a fresh per-call encode — the decode kernel's memo
// contract survives quantization — and the int32 payload checksums relate to
// the payload by exact integer arithmetic, verified by EQUALITY with zero
// threshold (asserted below with EXPECT_EQ on int32 values, no tolerance).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "abft/int8_checksums.hpp"
#include "abft/strided_abft.hpp"
#include "core/decode.hpp"
#include "numeric/fp16.hpp"
#include "numeric/int8_simd.hpp"
#include "kv_fixture.hpp"
#include "serve/engine.hpp"
#include "serve/kv_tile.hpp"
#include "serve/tile_pool.hpp"
#include "tensor/random.hpp"
#include "tensor/tensor.hpp"
#include "transformer/model.hpp"

namespace fa = ftt::abft;
namespace fc = ftt::core;
namespace fn = ftt::numeric;
namespace fs = ftt::serve;
namespace ft = ftt::tensor;
namespace fx = ftt::transformer;
using ftt::numeric::Half;

namespace {

constexpr std::size_t kRows = fs::TilePool::kTileRows;  // 64
constexpr int kStride = fa::StridedAbft::kDefaultStride;

std::vector<float> random_floats(std::size_t n, std::uint64_t seed,
                                 float sigma = 1.0f) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<float> dist(0.0f, sigma);
  std::vector<float> v(n);
  for (auto& x : v) x = dist(rng);
  return v;
}

std::vector<Half> random_halves(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<float> dist(0.0f, 1.0f);
  std::vector<Half> v(n);
  for (auto& x : v) x = Half(dist(rng));
  return v;
}

bool is_power_of_two(float x) {
  int e = 0;
  const float m = std::frexp(x, &e);
  return m == 0.5f;
}

}  // namespace

// ---------------------------------------------------------------------------
// numeric: scale choice and SIMD/scalar kernel bit-identity.
// ---------------------------------------------------------------------------

TEST(Int8Quant, ScaleIsSmallestCoveringPowerOfTwo) {
  for (const float amax : {0.001f, 0.5f, 1.0f, 3.7f, 126.9f, 127.0f, 127.1f,
                           1000.0f, 65504.0f}) {
    const fn::I8Scale s = fn::choose_i8_scale(amax);
    EXPECT_TRUE(is_power_of_two(s.scale)) << amax;
    EXPECT_GE(127.0f * s.scale, amax) << amax;
    // Smallest: halving the scale must no longer cover amax.
    EXPECT_LT(127.0f * (s.scale * 0.5f), amax) << amax;
    EXPECT_EQ(s.inv_scale, 1.0f / s.scale) << amax;
  }
  // Degenerate inputs take the neutral scale.
  EXPECT_EQ(fn::choose_i8_scale(0.0f).scale, 1.0f);
  EXPECT_EQ(fn::choose_i8_scale(-3.0f).scale, 1.0f);
  EXPECT_EQ(fn::choose_i8_scale(std::numeric_limits<float>::infinity()).scale,
            1.0f);
  EXPECT_EQ(
      fn::choose_i8_scale(std::numeric_limits<float>::quiet_NaN()).scale,
      1.0f);
}

TEST(Int8Quant, AmaxSkipsNaNs) {
  std::vector<float> v = {1.0f, -3.0f, std::numeric_limits<float>::quiet_NaN(),
                          2.0f};
  EXPECT_EQ(fn::amax_f32(v.data(), v.size()), 3.0f);
  v[1] = std::numeric_limits<float>::infinity();
  EXPECT_TRUE(std::isinf(fn::amax_f32(v.data(), v.size())));
}

TEST(Int8Quant, QuantizeSimdBitIdenticalToScalar) {
  // Random + adversarial lanes: NaN (-> 0), +-Inf (-> +-127), tie-to-even
  // boundaries, denormals, and a ragged length that exercises the SIMD tail.
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    std::vector<float> src = random_floats(1000 + seed, seed, 40.0f);
    src[7] = std::numeric_limits<float>::quiet_NaN();
    src[15] = std::numeric_limits<float>::infinity();
    src[31] = -std::numeric_limits<float>::infinity();
    src[63] = 0.5f;   // ties at .5 with inv_scale 1: RTNE -> 0
    src[64] = 1.5f;   // -> 2
    src[65] = 2.5f;   // -> 2
    src[66] = -2.5f;  // -> -2
    src[67] = 1e-40f;  // denormal
    for (const float inv_scale : {1.0f, 0.25f, 8.0f}) {
      std::vector<std::int8_t> simd(src.size()), ref(src.size());
      fn::quantize_f32_to_i8(src.data(), simd.data(), src.size(), inv_scale);
      fn::quantize_f32_to_i8_scalar(src.data(), ref.data(), src.size(),
                                    inv_scale);
      for (std::size_t i = 0; i < src.size(); ++i) {
        EXPECT_EQ(simd[i], ref[i]) << "i=" << i << " inv_scale=" << inv_scale;
      }
    }
  }
}

TEST(Int8Quant, QuantizeSemantics) {
  const float vals[] = {0.5f, 1.5f, 2.5f, -2.5f,
                        std::numeric_limits<float>::quiet_NaN(),
                        std::numeric_limits<float>::infinity(),
                        -std::numeric_limits<float>::infinity(), 200.0f};
  std::int8_t q[8];
  fn::quantize_f32_to_i8(vals, q, 8, 1.0f);
  EXPECT_EQ(q[0], 0);   // RTNE: 0.5 -> 0
  EXPECT_EQ(q[1], 2);   // 1.5 -> 2
  EXPECT_EQ(q[2], 2);   // 2.5 -> 2
  EXPECT_EQ(q[3], -2);  // -2.5 -> -2
  EXPECT_EQ(q[4], 0);   // NaN -> 0
  EXPECT_EQ(q[5], 127);
  EXPECT_EQ(q[6], -127);
  EXPECT_EQ(q[7], 127);  // saturates
}

TEST(Int8Quant, DequantizeSimdBitIdenticalToScalarAndExact) {
  std::vector<std::int8_t> src(515);
  std::mt19937_64 rng(99);
  for (auto& x : src) x = static_cast<std::int8_t>(rng() % 255) - 127;
  for (const float scale : {1.0f, 0.0078125f, 0.25f, 16.0f}) {
    std::vector<float> simd(src.size()), ref(src.size());
    fn::dequantize_i8_to_f32(src.data(), simd.data(), src.size(), scale);
    fn::dequantize_i8_to_f32_scalar(src.data(), ref.data(), src.size(),
                                    scale);
    for (std::size_t i = 0; i < src.size(); ++i) {
      EXPECT_EQ(simd[i], ref[i]);
      // Exactness: a power-of-two multiply only shifts the exponent.
      EXPECT_EQ(simd[i], static_cast<float>(src[i]) * scale);
      EXPECT_EQ(simd[i] / scale, static_cast<float>(src[i]));
    }
  }
}

TEST(Int8Quant, RoundTripErrorBoundedByHalfStep) {
  const std::vector<float> src = random_floats(kRows * 64, 4242);
  const fn::I8Scale s =
      fn::choose_i8_scale(fn::amax_f32(src.data(), src.size()));
  std::vector<std::int8_t> q(src.size());
  std::vector<float> back(src.size());
  fn::quantize_f32_to_i8(src.data(), q.data(), src.size(), s.inv_scale);
  fn::dequantize_i8_to_f32(q.data(), back.data(), src.size(), s.scale);
  for (std::size_t i = 0; i < src.size(); ++i) {
    EXPECT_LE(std::fabs(back[i] - src[i]), 0.5f * s.scale) << i;
  }
}

// ---------------------------------------------------------------------------
// abft: exact integer checksums — verification is EQUALITY, zero threshold.
// ---------------------------------------------------------------------------

namespace {

std::vector<std::int8_t> random_payload(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::int8_t> v(n);
  for (auto& x : v) x = static_cast<std::int8_t>(rng() % 255) - 127;
  return v;
}

}  // namespace

TEST(Int8Checksums, RowEncodingMatchesNaiveReferenceExactly) {
  const std::size_t rows = kRows, cols = 64;
  const int s = kStride;
  const auto X = random_payload(rows * cols, 11);
  std::vector<std::int32_t> c1(s * cols), c2(s * cols);
  fa::encode_rows_i8(X.data(), rows, cols, s, false, c1.data());
  fa::encode_rows_i8(X.data(), rows, cols, s, true, c2.data());
  for (std::size_t jc = 0; jc < static_cast<std::size_t>(s); ++jc) {
    for (std::size_t c = 0; c < cols; ++c) {
      std::int32_t r1 = 0, r2 = 0;
      for (std::size_t l = 0; l < rows / s; ++l) {
        const std::int32_t x = X[(jc + l * s) * cols + c];
        r1 += x;
        r2 += static_cast<std::int32_t>(l + 1) * x;
      }
      // EXACT: integer equality, no threshold.
      EXPECT_EQ(c1[jc * cols + c], r1);
      EXPECT_EQ(c2[jc * cols + c], r2);
    }
  }
}

TEST(Int8Checksums, ColEncodingMatchesNaiveReferenceExactly) {
  const std::size_t rows = kRows, cols = 64;
  const int s = kStride;
  const auto X = random_payload(rows * cols, 12);
  std::vector<std::int32_t> c1(rows * s), c2(rows * s);
  fa::encode_cols_i8(X.data(), rows, cols, s, false, c1.data());
  fa::encode_cols_i8(X.data(), rows, cols, s, true, c2.data());
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t jc = 0; jc < static_cast<std::size_t>(s); ++jc) {
      std::int32_t r1 = 0, r2 = 0;
      for (std::size_t l = 0; l < cols / s; ++l) {
        const std::int32_t x = X[r * cols + jc + l * s];
        r1 += x;
        r2 += static_cast<std::int32_t>(l + 1) * x;
      }
      EXPECT_EQ(c1[r * s + jc], r1);
      EXPECT_EQ(c2[r * s + jc], r2);
    }
  }
}

TEST(Int8Checksums, CleanPayloadVerifiesCleanByEquality) {
  const std::size_t rows = kRows, cols = 64;
  const int s = kStride;
  auto X = random_payload(rows * cols, 13);
  std::vector<std::int32_t> c1(s * cols), c2(s * cols);
  fa::encode_rows_i8(X.data(), rows, cols, s, false, c1.data());
  fa::encode_rows_i8(X.data(), rows, cols, s, true, c2.data());
  const auto rep =
      fa::verify_correct_rows_i8(X.data(), rows, cols, s, c1.data(),
                                 c2.data());
  EXPECT_TRUE(rep.clean());
  EXPECT_EQ(rep.classes, static_cast<std::size_t>(s) * cols);
}

TEST(Int8Checksums, SinglePayloadFaultLocatedAndRestoredExactly) {
  const std::size_t rows = kRows, cols = 64;
  const int s = kStride;
  auto X = random_payload(rows * cols, 14);
  const auto pristine = X;
  std::vector<std::int32_t> c1(s * cols), c2(s * cols);
  fa::encode_rows_i8(X.data(), rows, cols, s, false, c1.data());
  fa::encode_rows_i8(X.data(), rows, cols, s, true, c2.data());

  X[37 * cols + 5] = static_cast<std::int8_t>(X[37 * cols + 5] == 13 ? -13
                                                                     : 13);
  const auto rep =
      fa::verify_correct_rows_i8(X.data(), rows, cols, s, c1.data(),
                                 c2.data());
  EXPECT_EQ(rep.payload_corrected, 1u);
  EXPECT_EQ(rep.checksum_corrected, 0u);
  EXPECT_FALSE(rep.unrepairable);
  // Exact restoration: the full payload is bit-identical again.
  EXPECT_EQ(std::memcmp(X.data(), pristine.data(), X.size()), 0);
}

TEST(Int8Checksums, ChecksumFaultsRewrittenPayloadUntouched) {
  const std::size_t rows = kRows, cols = 64;
  const int s = kStride;
  auto X = random_payload(rows * cols, 15);
  const auto pristine = X;
  std::vector<std::int32_t> c1(s * cols), c2(s * cols);
  fa::encode_rows_i8(X.data(), rows, cols, s, false, c1.data());
  fa::encode_rows_i8(X.data(), rows, cols, s, true, c2.data());
  const auto good_c1 = c1, good_c2 = c2;

  c1[9] += 1000;  // d1 != 0, d2 == 0 -> stored c1 flipped
  c2[200] -= 7;   // d1 == 0, d2 != 0 -> stored c2 flipped
  const auto rep =
      fa::verify_correct_rows_i8(X.data(), rows, cols, s, c1.data(),
                                 c2.data());
  EXPECT_EQ(rep.checksum_corrected, 2u);
  EXPECT_EQ(rep.payload_corrected, 0u);
  EXPECT_FALSE(rep.unrepairable);
  EXPECT_EQ(std::memcmp(X.data(), pristine.data(), X.size()), 0);
  EXPECT_EQ(c1, good_c1);
  EXPECT_EQ(c2, good_c2);
}

TEST(Int8Checksums, DoubleFaultInOneClassIsUnrepairable) {
  const std::size_t rows = kRows, cols = 64;
  const int s = kStride;
  auto X = random_payload(rows * cols, 16);
  std::vector<std::int32_t> c1(s * cols), c2(s * cols);
  fa::encode_rows_i8(X.data(), rows, cols, s, false, c1.data());
  fa::encode_rows_i8(X.data(), rows, cols, s, true, c2.data());
  // Two payload elements in the same residue class (rows 3 and 3+s, col 0).
  X[3 * cols] = static_cast<std::int8_t>(X[3 * cols] + 5);
  X[(3 + s) * cols] = static_cast<std::int8_t>(X[(3 + s) * cols] - 9);
  const auto rep =
      fa::verify_correct_rows_i8(X.data(), rows, cols, s, c1.data(),
                                 c2.data());
  EXPECT_TRUE(rep.unrepairable);
}

TEST(Int8Checksums, ColVerifyRepairsSingleFault) {
  const std::size_t rows = kRows, cols = 64;
  const int s = kStride;
  auto X = random_payload(rows * cols, 17);
  const auto pristine = X;
  std::vector<std::int32_t> c1(rows * s), c2(rows * s);
  fa::encode_cols_i8(X.data(), rows, cols, s, false, c1.data());
  fa::encode_cols_i8(X.data(), rows, cols, s, true, c2.data());
  X[50 * cols + 33] = static_cast<std::int8_t>(~X[50 * cols + 33]);
  const auto rep =
      fa::verify_correct_cols_i8(X.data(), rows, cols, s, c1.data(),
                                 c2.data());
  EXPECT_EQ(rep.payload_corrected, 1u);
  EXPECT_FALSE(rep.unrepairable);
  EXPECT_EQ(std::memcmp(X.data(), pristine.data(), X.size()), 0);
}

// ---------------------------------------------------------------------------
// serve::detail: the sealed-tile quantizer and its exactness lemma.
// ---------------------------------------------------------------------------

namespace {

struct QuantizedTile {
  fs::detail::I8TileLayout L;
  std::vector<std::uint8_t> block;
  std::vector<Half> k, v;  // the fp16 source tile
};

QuantizedTile make_quantized_tile(std::size_t dim, std::uint64_t seed) {
  QuantizedTile t;
  t.L = fs::detail::i8_tile_layout(dim, kStride);
  t.block.resize(t.L.bytes);
  t.k = random_halves(kRows * dim, seed);
  t.v = random_halves(kRows * dim, seed + 1);
  fs::detail::quantize_sealed_tile(t.k.data(), t.v.data(), dim, kStride,
                                   t.block.data());
  return t;
}

}  // namespace

TEST(I8Tile, LayoutRegionsAreDisjointAndAligned) {
  const auto L = fs::detail::i8_tile_layout(64, kStride);
  EXPECT_EQ(L.scale_off % alignof(float), 0u);
  EXPECT_EQ(L.ienc_off % alignof(std::int32_t), 0u);
  EXPECT_EQ(L.henc_off % alignof(Half), 0u);
  EXPECT_EQ(L.bytes % 4u, 0u);
  EXPECT_LT(L.scale_off, L.ienc_off);
  EXPECT_LT(L.ienc_off, L.k_off);
  EXPECT_LT(L.k_off, L.v_off);
  EXPECT_LT(L.v_off, L.henc_off);
  EXPECT_LE(L.henc_off + 2 * (L.kcn + L.vcn) * sizeof(Half), L.bytes);
}

// The exactness lemma: the sealed Half encodings of a quantized tile are
// bit-equal to a fresh per-call encode of its dequantized payload, so the
// decode kernel's memo-vs-fresh contract survives quantization untouched.
TEST(I8Tile, SealedHalfEncodingsBitEqualFreshEncodeOfDequantizedPayload) {
  const std::size_t dim = 64;
  const auto t = make_quantized_tile(dim, 777);
  const float* sc = fs::detail::i8_scales(t.block.data(), t.L);
  const std::int8_t* kq = fs::detail::i8_k(t.block.data(), t.L);
  const std::int8_t* vq = fs::detail::i8_v(t.block.data(), t.L);

  // Dequantize exactly and narrow to Half — exact again, since every value
  // has <= 7 significant bits.  The K payload is stored k-major (K^T,
  // dim x 64), so transpose it back to the logical row-major tile first.
  std::vector<float> ktf(kRows * dim), kf(kRows * dim), vf(kRows * dim);
  fn::dequantize_i8_to_f32(kq, ktf.data(), ktf.size(), sc[0]);
  for (std::size_t r = 0; r < kRows; ++r) {
    for (std::size_t c = 0; c < dim; ++c) {
      kf[r * dim + c] = ktf[c * kRows + r];
    }
  }
  fn::dequantize_i8_to_f32(vq, vf.data(), vf.size(), sc[3]);
  std::vector<Half> kd(kf.size()), vd(vf.size());
  for (std::size_t i = 0; i < kf.size(); ++i) {
    kd[i] = Half(kf[i]);
    vd[i] = Half(vf[i]);
    EXPECT_EQ(kd[i].to_float(), kf[i]);  // narrowing was exact
  }
  std::vector<Half> fresh(2 * (t.L.kcn + t.L.vcn));
  fs::detail::encode_sealed_tile(kd.data(), vd.data(), dim, kStride,
                                 fresh.data());
  // Sealed layout stores the K checksum blocks transposed (Kc^T, dim x s);
  // encode_sealed_tile emits them row-major (s x dim).  V blocks match
  // layout directly.
  const Half* henc = fs::detail::i8_henc(t.block.data(), t.L);
  const std::size_t s = static_cast<std::size_t>(kStride);
  for (std::size_t blk = 0; blk < 2; ++blk) {
    const Half* sealed = henc + blk * t.L.kcn;
    const Half* ref = fresh.data() + blk * t.L.kcn;
    for (std::size_t j = 0; j < s; ++j) {
      for (std::size_t c = 0; c < dim; ++c) {
        EXPECT_EQ(sealed[c * s + j].bits(), ref[j * dim + c].bits())
            << blk << "," << j << "," << c;
      }
    }
  }
  for (std::size_t i = 0; i < 2 * t.L.vcn; ++i) {
    EXPECT_EQ(henc[2 * t.L.kcn + i].bits(), fresh[2 * t.L.kcn + i].bits())
        << i;
  }
}

TEST(I8Tile, IntegerChecksumsMatchPayloadAndScalesAreTMR) {
  const std::size_t dim = 64;
  const auto t = make_quantized_tile(dim, 778);
  const std::int8_t* kq = fs::detail::i8_k(t.block.data(), t.L);
  const std::int8_t* vq = fs::detail::i8_v(t.block.data(), t.L);
  const std::int32_t* ie = fs::detail::i8_ienc(t.block.data(), t.L);
  // K integer encodings run over the payload AS STORED — the k-major K^T
  // (dim x 64) — so rows = dim, cols = kRows and each block holds kcni
  // values.
  std::vector<std::int32_t> fresh(2 * (t.L.kcni + t.L.vcn));
  fa::encode_rows_i8(kq, dim, kRows, kStride, false, fresh.data());
  fa::encode_rows_i8(kq, dim, kRows, kStride, true, fresh.data() + t.L.kcni);
  fa::encode_cols_i8(vq, kRows, dim, kStride, false,
                     fresh.data() + 2 * t.L.kcni);
  fa::encode_cols_i8(vq, kRows, dim, kStride, true,
                     fresh.data() + 2 * t.L.kcni + t.L.vcn);
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_EQ(ie[i], fresh[i]) << i;  // EXACT int32 equality, no threshold
  }
  const float* sc = fs::detail::i8_scales(t.block.data(), t.L);
  EXPECT_EQ(sc[0], sc[1]);
  EXPECT_EQ(sc[1], sc[2]);
  EXPECT_EQ(sc[3], sc[4]);
  EXPECT_EQ(sc[4], sc[5]);
  EXPECT_TRUE(is_power_of_two(sc[0]));
  EXPECT_TRUE(is_power_of_two(sc[3]));
}

TEST(I8Tile, ScrubCleanTileReportsClean) {
  auto t = make_quantized_tile(64, 800);
  const auto before = t.block;
  EXPECT_EQ(fs::detail::scrub_i8_tile(t.block.data(), 64, kStride),
            fs::detail::I8ScrubResult::kClean);
  EXPECT_EQ(t.block, before);  // scrub of a clean tile touches nothing
}

TEST(I8Tile, ScrubRepairsPayloadChecksumScaleAndHencFaults) {
  const std::size_t dim = 64;
  // Payload fault.
  {
    auto t = make_quantized_tile(dim, 801);
    const auto pristine = t.block;
    t.block[t.L.k_off + 100] ^= 0x40;
    EXPECT_EQ(fs::detail::scrub_i8_tile(t.block.data(), dim, kStride),
              fs::detail::I8ScrubResult::kRepaired);
    EXPECT_EQ(t.block, pristine);  // exact restoration, bit for bit
  }
  // int32 checksum fault.
  {
    auto t = make_quantized_tile(dim, 802);
    const auto pristine = t.block;
    t.block[t.L.ienc_off + 11] ^= 0x10;
    EXPECT_EQ(fs::detail::scrub_i8_tile(t.block.data(), dim, kStride),
              fs::detail::I8ScrubResult::kRepaired);
    EXPECT_EQ(t.block, pristine);
  }
  // One TMR scale copy flipped: majority vote restores it.
  {
    auto t = make_quantized_tile(dim, 803);
    const auto pristine = t.block;
    t.block[t.L.scale_off + 1 * sizeof(float)] ^= 0x04;  // K copy #2
    EXPECT_EQ(fs::detail::scrub_i8_tile(t.block.data(), dim, kStride),
              fs::detail::I8ScrubResult::kRepaired);
    EXPECT_EQ(t.block, pristine);
  }
  // Sealed Half encoding fault: rebuilt from the (clean) payload.
  {
    auto t = make_quantized_tile(dim, 804);
    const auto pristine = t.block;
    t.block[t.L.henc_off + 3] ^= 0x01;
    EXPECT_EQ(fs::detail::scrub_i8_tile(t.block.data(), dim, kStride),
              fs::detail::I8ScrubResult::kRepaired);
    EXPECT_EQ(t.block, pristine);
  }
}

TEST(I8Tile, ScrubDoubleClassFaultUnrepairable) {
  const std::size_t dim = 64;
  auto t = make_quantized_tile(dim, 805);
  // Two payload elements of the same K residue class (rows 0 and s, col 0).
  t.block[t.L.k_off + 0] ^= 0x7f;
  t.block[t.L.k_off + static_cast<std::size_t>(kStride) * dim] ^= 0x7f;
  EXPECT_EQ(fs::detail::scrub_i8_tile(t.block.data(), dim, kStride),
            fs::detail::I8ScrubResult::kUnrepairable);
}

// ---------------------------------------------------------------------------
// A kI8 PagedKvCache: format bookkeeping and decode bit-identity against a
// manually dequantized fp16 twin.
// ---------------------------------------------------------------------------

namespace {

constexpr std::size_t kHeads = 2, kDim = 64;

kvtest::PagedKv quant_kv(bool quant) {
  return kvtest::PagedKv(kHeads, kDim, kStride, fc::ImagePolicy::kNone,
                         quant ? fc::TileFmt::kI8 : fc::TileFmt::kF16);
}

std::vector<float> decode_all_heads(const kvtest::PagedKv& kv,
                                    std::span<const Half> q) {
  std::vector<float> out(kHeads * kDim);
  for (std::size_t h = 0; h < kHeads; ++h) {
    fc::efta_decode_step(kv.slice(h), q.subspan(h * kDim, kDim),
                         std::span<float>(out).subspan(h * kDim, kDim));
  }
  return out;
}

}  // namespace

TEST(PagedKvQuant, SealedTilesFlipToI8AndTailStaysF16) {
  kvtest::PagedKv cache = quant_kv(true);
  kvtest::fill_cache(cache, 2 * kRows + 10, 21);
  ASSERT_EQ(cache.cache.block_table().size(), 3u);
  const fc::KvSlice s = cache.slice(0);
  ASSERT_NE(s.fmt, nullptr);
  EXPECT_EQ(s.fmt[0], fc::TileFmt::kI8);
  EXPECT_EQ(s.fmt[1], fc::TileFmt::kI8);
  EXPECT_EQ(s.fmt[2], fc::TileFmt::kF16);
  ASSERT_NE(s.k_i8, nullptr);
  EXPECT_NE(s.k_i8[0], nullptr);
  EXPECT_EQ(s.k_i8[2], nullptr);  // open tail stays fp16
  EXPECT_NE(s.k_scale[0], 0.0f);
}

TEST(PagedKvQuant, DecodeBitIdenticalToDequantizedF16Twin) {
  // The decode kernel widens a kI8 tile by exact dequantization; a fp16
  // cache holding Half(dequantized payload) — exact, <= 7-bit significands —
  // must therefore decode bit-identically.
  kvtest::PagedKv quant = quant_kv(true);
  kvtest::fill_cache(quant, 2 * kRows + 17, 22);

  kvtest::PagedKv ref = quant_kv(false);
  std::mt19937_64 rng(22);
  std::normal_distribution<float> dist(0.0f, 1.0f);
  // Rebuild the reference stream: sealed-tile rows take the dequantized
  // values read back from the quantized cache, tail rows the raw values.
  const std::size_t tokens = quant.cache.length();
  std::vector<Half> k(kHeads * kDim), v(kHeads * kDim);
  for (std::size_t tok = 0; tok < tokens; ++tok) {
    const std::size_t tile = tok / kRows, row = tok % kRows;
    for (std::size_t h = 0; h < kHeads; ++h) {
      const fc::KvSlice s = quant.slice(h);
      for (std::size_t c = 0; c < kDim; ++c) {
        const float kraw = dist(rng), vraw = dist(rng);
        if (s.fmt[tile] == fc::TileFmt::kI8) {
          // K is stored k-major (K^T, dim x 64): logical (row, c) lives at
          // c * 64 + row.  V stays row-major.
          k[h * kDim + c] = Half(
              static_cast<float>(s.k_i8[tile][c * kRows + row]) *
              s.k_scale[tile]);
          v[h * kDim + c] = Half(
              static_cast<float>(s.v_i8[tile][row * kDim + c]) *
              s.v_scale[tile]);
        } else {
          k[h * kDim + c] = Half(kraw);
          v[h * kDim + c] = Half(vraw);
        }
      }
    }
    ref.append(k, v);
  }

  const std::vector<Half> q = random_halves(kHeads * kDim, 23);
  const std::vector<float> out_q = decode_all_heads(quant, q);
  const std::vector<float> out_r = decode_all_heads(ref, q);
  ASSERT_EQ(out_q.size(), out_r.size());
  for (std::size_t i = 0; i < out_q.size(); ++i) {
    EXPECT_EQ(out_q[i], out_r[i]) << i;
  }
}

TEST(PagedKvQuant, DecodeDeterministicAndWithinQuantTolerance) {
  kvtest::PagedKv quant = quant_kv(true);
  kvtest::PagedKv exact = quant_kv(false);
  kvtest::fill_cache(quant, 3 * kRows, 24);
  kvtest::fill_cache(exact, 3 * kRows, 24);

  const std::vector<Half> q = random_halves(kHeads * kDim, 25);
  const std::vector<float> a = decode_all_heads(quant, q);
  const std::vector<float> b = decode_all_heads(quant, q);
  const std::vector<float> e = decode_all_heads(exact, q);
  float max_dev = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]);  // lossy but deterministic
    max_dev = std::max(max_dev, std::fabs(a[i] - e[i]));
  }
  // Attention outputs are convex combinations of V rows, so the deviation
  // is bounded by the V quantization step (~scale/2) plus the score
  // perturbation's reweighting — comfortably inside 0.05 for unit-variance
  // payloads at 8-bit resolution.
  EXPECT_LT(max_dev, 0.05f);
  EXPECT_GT(max_dev, 0.0f);  // it IS lossy — identical outputs would mean
                             // the quantized path was never exercised
}

// ---------------------------------------------------------------------------
// serve::TilePool + PagedKvCache + engine: mixed formats in one pool.
// ---------------------------------------------------------------------------

namespace {

fs::TilePoolOptions pool_options(std::size_t capacity = 0,
                                 bool images = false) {
  fs::TilePoolOptions o;
  o.layers = 2;
  o.heads = kHeads;
  o.dim = kDim;
  o.capacity_tiles = capacity;
  o.enc_stride = kStride;
  o.images = images ? fc::ImagePolicy::kF16T : fc::ImagePolicy::kNone;
  return o;
}

/// Drive one PagedKvCache through `tokens` appends on every layer.
void fill_paged(fs::PagedKvCache& cache, std::size_t layers,
                std::size_t tokens, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<float> dist(0.0f, 1.0f);
  const std::size_t w = kHeads * kDim;
  std::vector<Half> k(w), v(w);
  for (std::size_t t = 0; t < tokens; ++t) {
    ASSERT_TRUE(cache.ensure_capacity(cache.length() + 1));
    for (std::size_t i = 0; i < w; ++i) {
      k[i] = Half(dist(rng));
      v[i] = Half(dist(rng));
    }
    for (std::size_t l = 0; l < layers; ++l) {
      cache.append_chunk(l, k, v, 1);
    }
  }
}

}  // namespace

TEST(TilePoolQuant, I8FormatRequiresEncodingMemo) {
  fs::TilePoolOptions o = pool_options();
  o.enc_stride = 0;
  fs::TilePool pool(o);
  EXPECT_THROW((void)pool.acquire(fc::TileFmt::kI8), std::logic_error);
  EXPECT_THROW(fs::PagedKvCache(pool, fc::TileFmt::kI8), std::logic_error);
}

TEST(TilePoolQuant, SealedI8TileFreesStagingSlabAndShrinksFootprint) {
  fs::TilePool pool(pool_options(0, /*images=*/true));
  const std::size_t f16_bytes = pool.tile_bytes(fc::TileFmt::kF16);
  const std::size_t i8_bytes = pool.tile_bytes(fc::TileFmt::kI8);
  // The capacity win the kv_int8_capacity_ratio gauge pins: >= 2.9x at
  // dim 64, stride 8, over its fixed basis of 3x the bare fp16 slab.  The
  // i8 tile is also smaller than the default fp16 + f16t-image tile.
  const std::size_t bare_bytes = pool.slab_halves() * sizeof(Half);
  EXPECT_GE(static_cast<double>(3 * bare_bytes) /
                static_cast<double>(i8_bytes),
            2.9);
  EXPECT_GT(f16_bytes, i8_bytes);

  fs::PagedKvCache cache(pool, fc::TileFmt::kI8);
  fill_paged(cache, pool.layers(), kRows, 31);  // exactly one sealed tile
  ASSERT_EQ(cache.block_table().size(), 1u);
  const auto id = cache.block_table()[0];
  EXPECT_TRUE(pool.sealed(id));
  EXPECT_EQ(pool.format(id), fc::TileFmt::kI8);
  // Staging slab freed: fp16 accessors null out, i8 block present.
  EXPECT_EQ(pool.k_tile(id, 0, 0), nullptr);
  EXPECT_EQ(pool.enc_block(id, 0, 0), nullptr);
  EXPECT_EQ(pool.f16t_image(id, 0, 0), nullptr);
  EXPECT_NE(pool.i8_block(id, 0, 0), nullptr);
  EXPECT_EQ(pool.bytes_in_use(), i8_bytes);
}

TEST(TilePoolQuant, MixedFormatBytesAccountingIsPerTile) {
  fs::TilePool pool(pool_options());
  fs::PagedKvCache a(pool, fc::TileFmt::kI8);
  fs::PagedKvCache b(pool, fc::TileFmt::kF16);
  fill_paged(a, pool.layers(), kRows, 32);  // one sealed i8 tile
  fill_paged(b, pool.layers(), kRows, 33);  // one sealed fp16 tile
  EXPECT_EQ(pool.bytes_in_use(), pool.tile_bytes(fc::TileFmt::kI8) +
                                     pool.tile_bytes(fc::TileFmt::kF16));
  // An OPEN kI8 tile charges both its fp16 staging slab and its
  // (acquire-time) i8 slab; only the seal frees the staging slab.
  fill_paged(a, pool.layers(), 5, 34);
  EXPECT_EQ(pool.bytes_in_use(), 2 * pool.tile_bytes(fc::TileFmt::kI8) +
                                     2 * pool.tile_bytes(fc::TileFmt::kF16));
}

TEST(TilePoolQuant, RecycleConvertsFormatsBothWays) {
  fs::TilePool pool(pool_options(1));  // capacity 1: forced recycling
  fs::PagedKvCache a(pool, fc::TileFmt::kI8);
  fill_paged(a, pool.layers(), kRows, 35);
  const auto id = a.block_table()[0];
  EXPECT_EQ(pool.format(id), fc::TileFmt::kI8);
  a.release_all();
  fs::PagedKvCache b(pool, fc::TileFmt::kF16);
  fill_paged(b, pool.layers(), kRows, 36);
  ASSERT_EQ(b.block_table()[0], id);  // same physical tile, recycled
  EXPECT_EQ(pool.format(id), fc::TileFmt::kF16);
  EXPECT_EQ(pool.i8_block(id, 0, 0), nullptr);
  EXPECT_NE(pool.k_tile(id, 0, 0), nullptr);
}

TEST(TilePoolQuant, ScrubRepairsI8TileInPlace) {
  fs::TilePool pool(pool_options());
  fs::PagedKvCache cache(pool, fc::TileFmt::kI8);
  fill_paged(cache, pool.layers(), kRows, 37);
  const auto id = cache.block_table()[0];
  const auto L = fs::detail::i8_tile_layout(kDim, kStride);
  std::vector<std::uint8_t> pristine(pool.i8_block_bytes());
  std::memcpy(pristine.data(), pool.i8_block(id, 1, 1), pristine.size());

  fs::testing::flip_i8_bit(pool, id, 1, 1, L.k_off + 123, 5);
  auto rep = pool.scrub(8);
  EXPECT_EQ(rep.scanned, 1u);
  EXPECT_EQ(rep.repaired, 1u);
  EXPECT_TRUE(rep.dropped.empty());
  EXPECT_EQ(std::memcmp(pristine.data(), pool.i8_block(id, 1, 1),
                        pristine.size()),
            0);
  // Clean rescan: nothing left to repair.
  rep = pool.scrub(8);
  EXPECT_EQ(rep.repaired, 0u);
  EXPECT_TRUE(rep.dropped.empty());
}

TEST(TilePoolQuant, ScrubDropsUnrepairableI8Tile) {
  fs::TilePool pool(pool_options());
  fs::PagedKvCache cache(pool, fc::TileFmt::kI8);
  fill_paged(cache, pool.layers(), kRows, 38);
  const auto id = cache.block_table()[0];
  const auto L = fs::detail::i8_tile_layout(kDim, kStride);
  // Two faults in one residue class of the stored K^T array (stored rows 0
  // and s, column 0 — loop indices 0 and 1).  Different bits so the errors
  // are e0 = ±64, e1 = ±2: every sign combination gives d1 != 0, d2 != 0
  // and a non-integer d2/d1, so the double fault can never alias a
  // single-fault repair or a checksum flip, whatever the payload bytes are.
  fs::testing::flip_i8_bit(pool, id, 0, 0, L.k_off, 6);
  fs::testing::flip_i8_bit(
      pool, id, 0, 0, L.k_off + static_cast<std::size_t>(kStride) * kRows, 1);
  const auto rep = pool.scrub(8);
  ASSERT_EQ(rep.dropped.size(), 1u);
  EXPECT_EQ(rep.dropped[0], id);
  EXPECT_FALSE(pool.sealed(id));
}

TEST(TilePoolQuant, AttachSharedRejectsCrossFormat) {
  fs::TilePool pool(pool_options());
  fs::PagedKvCache a(pool, fc::TileFmt::kI8);
  fill_paged(a, pool.layers(), kRows, 39);
  const auto id = a.block_table()[0];
  const fs::ChainKey key = fs::chain_extend(fs::ChainKey{}, "x", 1);
  ASSERT_TRUE(pool.publish(id, key));

  fs::PagedKvCache b(pool, fc::TileFmt::kF16);
  const auto found = pool.lookup_shared(key);
  ASSERT_EQ(found, id);
  EXPECT_THROW(b.attach_shared(found), std::logic_error);
  pool.release(found);  // undo lookup's retain

  fs::PagedKvCache c(pool, fc::TileFmt::kI8);
  const auto again = pool.lookup_shared(key);
  ASSERT_EQ(again, id);
  c.attach_shared(again);  // same format: fine
  EXPECT_EQ(c.shared_tiles(), 1u);
  EXPECT_EQ(c.length(), kRows);
}

// ---------------------------------------------------------------------------
// Engine integration: per-request formats sharing one pool.
// ---------------------------------------------------------------------------

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

}  // namespace

TEST(EngineQuant, F16RequestsInMixedPoolStayBitwiseIdentical) {
  const fx::Model model(serving_config(), 0x1117);
  const std::size_t hidden = model.config().hidden;
  const ft::MatrixF p_f16 = random_prompt(90, hidden, 51);
  const ft::MatrixF p_i8 = random_prompt(90, hidden, 52);

  fs::DecodeEngine mixed(model);
  // Formats are explicit on both sides: the test's claim is about fp16
  // requests, whatever submit()'s FTT_KV_QUANT-controlled default is.
  const auto id_f = mixed.submit_with_format(p_f16, fc::TileFmt::kF16, 6);
  const auto id_q =
      mixed.submit_with_format(p_i8, fc::TileFmt::kI8, 6);
  mixed.run_until_idle();

  fs::DecodeEngine pure(model);
  const auto id_p = pure.submit_with_format(p_f16, fc::TileFmt::kF16, 6);
  pure.run_until_idle();

  const auto hm = mixed.hidden(id_f);
  const auto hp = pure.hidden(id_p);
  ASSERT_EQ(hm.size(), hp.size());
  for (std::size_t i = 0; i < hm.size(); ++i) {
    EXPECT_EQ(hm[i], hp[i]) << i;  // bitwise, despite the i8 pool-mate
  }
  EXPECT_GT(mixed.context_length(id_q), 90u);  // the i8 request ran too
}

TEST(EngineQuant, I8RequestDeterministicAndNearF16Twin) {
  const fx::Model model(serving_config(), 0x1118);
  const std::size_t hidden = model.config().hidden;
  const ft::MatrixF prompt = random_prompt(150, hidden, 53);

  fs::EngineOptions qopt;
  qopt.kv_quant = true;
  fs::DecodeEngine q1(model, qopt), q2(model, qopt);
  const auto a = q1.submit(prompt, 8);
  const auto b = q2.submit(prompt, 8);
  q1.run_until_idle();
  q2.run_until_idle();

  fs::DecodeEngine f(model);
  const auto c = f.submit(prompt, 8);
  f.run_until_idle();

  const auto ha = q1.hidden(a), hb = q2.hidden(b), hc = f.hidden(c);
  ASSERT_EQ(ha.size(), hc.size());
  float max_dev = 0.0f;
  for (std::size_t i = 0; i < ha.size(); ++i) {
    EXPECT_EQ(ha[i], hb[i]) << i;  // quantized runs are deterministic
    max_dev = std::max(max_dev, std::fabs(ha[i] - hc[i]));
  }
  // Documented parity tolerance for the int8 KV path (docs/QUANTIZATION.md):
  // hidden-state drift after prefill + 8 generated tokens on the tiny
  // model stays within 0.25 absolute of the fp16 twin.
  EXPECT_LT(max_dev, 0.25f);
}

TEST(EngineQuant, PrefixSharingWorksWithinI8AndNeverCrossesFormats) {
  const fx::Model model(serving_config(), 0x1119);
  const std::size_t hidden = model.config().hidden;
  const ft::MatrixF prompt = random_prompt(130, hidden, 54);  // 2 shareable

  fs::DecodeEngine engine(model);
  const auto q1 = engine.submit_with_format(prompt, fc::TileFmt::kI8, 3);
  engine.run_until_idle();
  // Same prompt, same format: the sealed i8 prompt tiles are attached.
  // (Counts read after the admission tick — retirement releases the cache.)
  const auto q2 = engine.submit_with_format(prompt, fc::TileFmt::kI8, 3);
  engine.step();
  EXPECT_EQ(engine.shared_tile_count(q2), 2u);
  engine.run_until_idle();
  // Same prompt, fp16 (explicit — submit()'s default follows FTT_KV_QUANT):
  // the format-tagged chain key must MISS the i8 tiles.
  const auto f1 = engine.submit_with_format(prompt, fc::TileFmt::kF16, 3);
  engine.step();
  EXPECT_EQ(engine.shared_tile_count(f1), 0u);
  engine.run_until_idle();
  // And the shared i8 request replays the private one bit for bit.
  const auto h1 = engine.hidden(q1), h2 = engine.hidden(q2);
  for (std::size_t i = 0; i < h1.size(); ++i) EXPECT_EQ(h1[i], h2[i]);
}

TEST(EngineQuant, ScrubberRepairsI8TilesInServingPool) {
  const fx::Model model(serving_config(), 0x111a);
  const std::size_t hidden = model.config().hidden;
  fs::EngineOptions opt;
  opt.kv_quant = true;
  opt.recovery.scrub_tiles_per_tick = 64;
  fs::DecodeEngine engine(model, opt);
  const auto id = engine.submit(random_prompt(70, hidden, 55), 12);
  engine.drain(3);  // prefill + decode: at least one sealed i8 tile
  fs::TilePool& pool = fs::testing::engine_pool(engine);
  ASSERT_GT(pool.in_use(), 0u);
  const auto L = fs::detail::i8_tile_layout(model.config().head_dim(),
                                            opt.efta.stride);
  fs::testing::flip_i8_bit(pool, 0, 0, 0, L.v_off + 7, 3);
  const auto stats = engine.drain(2);
  EXPECT_GE(stats.scrubbed, 1u);
  EXPECT_GE(stats.repaired, 1u);
  EXPECT_EQ(stats.scrub_dropped, 0u);
  engine.run_until_idle();
  EXPECT_EQ(engine.context_length(id), 70u + 12u);
}
