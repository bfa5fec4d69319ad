#include "serve/kv_tile.hpp"

#include <cstring>
#include <vector>

#include "abft/int8_checksums.hpp"
#include "abft/strided_abft.hpp"
#include "core/decode.hpp"
#include "numeric/gemm_simd.hpp"
#include "numeric/int8_simd.hpp"
#include "tensor/tensor.hpp"

namespace ftt::serve {

using numeric::Half;
using tensor::MatrixH;
using tensor::MatrixHView;

namespace detail {

void encode_sealed_tile(const Half* k_tile, const Half* v_tile,
                        std::size_t dim, int s, Half* out) {
  constexpr std::size_t kRows = core::KvSlice::kTileRows;
  const auto su = static_cast<std::size_t>(s);
  const std::size_t kcn = su * dim;     // one K row-checksum block
  const std::size_t vcn = kRows * su;   // one V column-checksum block
  // Single-pass seal: the fp16-operand encoders widen 8 lanes at a time in
  // register, so the 2x fp32 staging copies the old path materialised are
  // gone.  Bit-identical: fp16 -> fp32 widening is exact and the per-class
  // accumulation order (ascending l) is unchanged.
  const MatrixH kc1 = abft::StridedAbft::encode_rows_strided_h(
      k_tile, kRows, dim, s, false, nullptr);
  const MatrixH kc2 = abft::StridedAbft::encode_rows_strided_h(
      k_tile, kRows, dim, s, true, nullptr);
  const MatrixH vc1 = abft::StridedAbft::encode_cols_strided_h(
      v_tile, kRows, dim, s, false, nullptr);
  const MatrixH vc2 = abft::StridedAbft::encode_cols_strided_h(
      v_tile, kRows, dim, s, true, nullptr);
  std::memcpy(out, kc1.data(), kcn * sizeof(Half));
  std::memcpy(out + kcn, kc2.data(), kcn * sizeof(Half));
  std::memcpy(out + 2 * kcn, vc1.data(), vcn * sizeof(Half));
  std::memcpy(out + 2 * kcn + vcn, vc2.data(), vcn * sizeof(Half));
}

I8TileLayout i8_tile_layout(std::size_t dim, int s) noexcept {
  constexpr std::size_t kRows = core::KvSlice::kTileRows;
  const auto su = static_cast<std::size_t>(s);
  I8TileLayout L;
  L.dim = dim;
  L.s = su;
  L.payload = kRows * dim;
  L.kcn = su * dim;        // henc K block: s x dim logical, stored dim x s
  L.kcni = su * kRows;     // ienc K block: row encode of the stored K^T
  L.vcn = kRows * su;
  const std::size_t ienc_n = 2 * L.kcni + 2 * L.vcn;
  const std::size_t henc_n = 2 * L.kcn + 2 * L.vcn;
  L.scale_off = 0;
  L.ienc_off = L.scale_off + 6 * sizeof(float);
  L.k_off = L.ienc_off + ienc_n * sizeof(std::int32_t);
  L.v_off = L.k_off + L.payload;
  L.henc_off = L.v_off + L.payload;  // even: payload offsets differ by 2*64*dim
  L.bytes = (L.henc_off + henc_n * sizeof(numeric::Half) + 3) & ~std::size_t{3};
  return L;
}

namespace {

// Half transpose (pure data movement, like numeric::transpose_f32): packs
// the K-side henc blocks k-major at seal time so decode widens them
// straight into the checksum GEMM operand, no per-tile pack.
void transpose_h(const Half* in, std::size_t rows, std::size_t cols,
                 Half* out) noexcept {
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) out[c * rows + r] = in[r * cols + c];
  }
}

}  // namespace

std::size_t f16t_image_halves(std::size_t dim, int s) noexcept {
  constexpr std::size_t kRows = core::KvSlice::kTileRows;
  const auto su = static_cast<std::size_t>(s);
  return kRows * dim + 2 * su * dim;
}

void build_f16t_image(const Half* k_tile, const Half* enc_block,
                      std::size_t dim, int s, Half* out) {
  constexpr std::size_t kRows = core::KvSlice::kTileRows;
  const auto su = static_cast<std::size_t>(s);
  const std::size_t kcn = su * dim;
  // Pure Half-bit transposes: the stored K rows land k-major for the fused
  // score GEMM, the sealed K checksum blocks land k-major for the checksum
  // GEMMs.  No arithmetic, so the image carries exactly the slab's bits.
  Half* kt = out;                 // K^T, dim x kRows
  Half* kc1t = out + dim * kRows; // Kc1^T, dim x su
  Half* kc2t = kc1t + dim * su;   // Kc2^T, dim x su
  transpose_h(k_tile, kRows, dim, kt);
  transpose_h(enc_block, su, dim, kc1t);
  transpose_h(enc_block + kcn, su, dim, kc2t);
}

void quantize_sealed_tile(const Half* k_tile, const Half* v_tile,
                          std::size_t dim, int s, std::uint8_t* block) {
  constexpr std::size_t kRows = core::KvSlice::kTileRows;
  const I8TileLayout L = i8_tile_layout(dim, s);
  const std::size_t n = kRows * dim;
  std::vector<float> kf(n), vf(n), ktf(n);
  tensor::widen(MatrixHView{k_tile, kRows, dim, dim}, kf.data());
  tensor::widen(MatrixHView{v_tile, kRows, dim, dim}, vf.data());
  const numeric::I8Scale ks = numeric::choose_i8_scale(
      numeric::amax_f32(kf.data(), n));
  const numeric::I8Scale vs = numeric::choose_i8_scale(
      numeric::amax_f32(vf.data(), n));
  // K quantizes through its k-major (transposed) image: the stored payload
  // is K^T, the layout the fused score GEMM streams directly.  V stays
  // row-major for GEMM II's axpy.
  std::int8_t* kq = i8_k(block, L);
  std::int8_t* vq = i8_v(block, L);
  numeric::transpose_f32(kf.data(), kRows, dim, ktf.data());
  numeric::quantize_f32_to_i8(ktf.data(), kq, n, ks.inv_scale);
  numeric::quantize_f32_to_i8(vf.data(), vq, n, vs.inv_scale);
  // The exactly-dequantized image — the fp32 operands every decode call
  // over this tile will reconstruct (scale is a power of two: exponent
  // shift only, no rounding).  kf is rebuilt row-major (logical K) for the
  // encoders below.
  numeric::dequantize_i8_to_f32(kq, ktf.data(), n, ks.scale);
  numeric::transpose_f32(ktf.data(), dim, kRows, kf.data());
  numeric::dequantize_i8_to_f32(vq, vf.data(), n, vs.scale);
  // Half encodings of that image: bit-equal to the fresh per-call encode,
  // so the decode kernel's memo path and injector-forced fresh path agree
  // bit for bit, exactly as they do for fp16 tiles.  The K-side blocks are
  // stored transposed (dim x s) like the kF16T image's Kc^T blocks.
  const MatrixH kc1 = abft::StridedAbft::encode_rows_strided_widened(
      kf.data(), kRows, dim, s, false, nullptr);
  const MatrixH kc2 = abft::StridedAbft::encode_rows_strided_widened(
      kf.data(), kRows, dim, s, true, nullptr);
  const MatrixH vc1 = abft::StridedAbft::encode_cols_strided_widened(
      vf.data(), kRows, dim, s, false, nullptr);
  const MatrixH vc2 = abft::StridedAbft::encode_cols_strided_widened(
      vf.data(), kRows, dim, s, true, nullptr);
  Half* he = i8_henc(block, L);
  const auto su = static_cast<std::size_t>(s);
  transpose_h(kc1.data(), su, dim, he);
  transpose_h(kc2.data(), su, dim, he + L.kcn);
  std::memcpy(he + 2 * L.kcn, vc1.data(), L.vcn * sizeof(Half));
  std::memcpy(he + 2 * L.kcn + L.vcn, vc2.data(), L.vcn * sizeof(Half));
  // Exact int32 checksums of the payload *as stored* (K's run over the
  // k-major array) — the at-rest redundancy the scrubber verifies by
  // equality.
  std::int32_t* ie = i8_ienc(block, L);
  abft::encode_rows_i8(kq, dim, kRows, s, false, ie);
  abft::encode_rows_i8(kq, dim, kRows, s, true, ie + L.kcni);
  abft::encode_cols_i8(vq, kRows, dim, s, false, ie + 2 * L.kcni);
  abft::encode_cols_i8(vq, kRows, dim, s, true, ie + 2 * L.kcni + L.vcn);
  float* sc = i8_scales(block, L);
  sc[0] = sc[1] = sc[2] = ks.scale;
  sc[3] = sc[4] = sc[5] = vs.scale;
}

namespace {

// Bitwise 2-of-3 majority vote over one operand's TMR scale copies.
// Returns false on a three-way disagreement (>= 2 scale faults).
bool vote_scale(float* sc, bool& repaired) noexcept {
  std::uint32_t b[3];
  std::memcpy(&b[0], &sc[0], sizeof(float));
  std::memcpy(&b[1], &sc[1], sizeof(float));
  std::memcpy(&b[2], &sc[2], sizeof(float));
  std::uint32_t win;
  if (b[0] == b[1] || b[0] == b[2]) {
    win = b[0];
  } else if (b[1] == b[2]) {
    win = b[1];
  } else {
    return false;
  }
  for (int i = 0; i < 3; ++i) {
    if (b[i] != win) {
      std::memcpy(&sc[i], &win, sizeof(float));
      repaired = true;
    }
  }
  return true;
}

}  // namespace

I8ScrubResult scrub_i8_tile(std::uint8_t* block, std::size_t dim, int s) {
  constexpr std::size_t kRows = core::KvSlice::kTileRows;
  const I8TileLayout L = i8_tile_layout(dim, s);
  bool repaired = false;
  // 1. Scales first: everything downstream (the Half-encoding recompute)
  //    reads them, and they sit outside both checksum families.
  float* sc = i8_scales(block, L);
  if (!vote_scale(sc, repaired) || !vote_scale(sc + 3, repaired)) {
    return I8ScrubResult::kUnrepairable;
  }
  // 2. Exact integer verify/correct of both payloads against the int32
  //    encodings — equality, zero threshold, exact single-fault repair.
  std::int8_t* kq = i8_k(block, L);
  std::int8_t* vq = i8_v(block, L);
  std::int32_t* ie = i8_ienc(block, L);
  const abft::I8VerifyReport kr = abft::verify_correct_rows_i8(
      kq, dim, kRows, s, ie, ie + L.kcni);
  const abft::I8VerifyReport vr = abft::verify_correct_cols_i8(
      vq, kRows, dim, s, ie + 2 * L.kcni, ie + 2 * L.kcni + L.vcn);
  if (kr.unrepairable || vr.unrepairable) return I8ScrubResult::kUnrepairable;
  repaired = repaired || !kr.clean() || !vr.clean();
  // 3. The Half encodings are derived state: recompute them from the (now
  //    verified) payload and scales, and rewrite on any mismatch — this
  //    catches flips in the henc region itself and completes payload/scale
  //    repairs in one pass.  The stored K payload is k-major, so it
  //    transposes back to logical rows for the encoders, and the fresh
  //    K-side blocks transpose into the stored (dim x s) orientation.
  const std::size_t n = kRows * dim;
  const auto su = static_cast<std::size_t>(s);
  std::vector<float> kf(n), vf(n), ktf(n);
  numeric::dequantize_i8_to_f32(kq, ktf.data(), n, sc[0]);
  numeric::transpose_f32(ktf.data(), dim, kRows, kf.data());
  numeric::dequantize_i8_to_f32(vq, vf.data(), n, sc[3]);
  const MatrixH kc1 = abft::StridedAbft::encode_rows_strided_widened(
      kf.data(), kRows, dim, s, false, nullptr);
  const MatrixH kc2 = abft::StridedAbft::encode_rows_strided_widened(
      kf.data(), kRows, dim, s, true, nullptr);
  const MatrixH vc1 = abft::StridedAbft::encode_cols_strided_widened(
      vf.data(), kRows, dim, s, false, nullptr);
  const MatrixH vc2 = abft::StridedAbft::encode_cols_strided_widened(
      vf.data(), kRows, dim, s, true, nullptr);
  std::vector<Half> fresh(2 * L.kcn + 2 * L.vcn);
  transpose_h(kc1.data(), su, dim, fresh.data());
  transpose_h(kc2.data(), su, dim, fresh.data() + L.kcn);
  std::memcpy(fresh.data() + 2 * L.kcn, vc1.data(), L.vcn * sizeof(Half));
  std::memcpy(fresh.data() + 2 * L.kcn + L.vcn, vc2.data(),
              L.vcn * sizeof(Half));
  Half* he = i8_henc(block, L);
  if (std::memcmp(fresh.data(), he, fresh.size() * sizeof(Half)) != 0) {
    std::memcpy(he, fresh.data(), fresh.size() * sizeof(Half));
    repaired = true;
  }
  return repaired ? I8ScrubResult::kRepaired : I8ScrubResult::kClean;
}

}  // namespace detail

}  // namespace ftt::serve
