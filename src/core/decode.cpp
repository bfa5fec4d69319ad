#include "core/decode.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "abft/strided_abft.hpp"
#include "numeric/gemm_simd.hpp"
#include "numeric/int8_simd.hpp"
#include "sim/mma.hpp"
#include "softmax/snvr.hpp"

namespace ftt::core {

using attention::FtReport;
using numeric::Half;
using tensor::MatrixF;
using tensor::MatrixH;

namespace testing {
std::size_t& tiles_materialized() noexcept {
  thread_local std::size_t count = 0;
  return count;
}
}  // namespace testing

namespace {

void validate_item(const DecodeWorkItem& it, const EftaOptions& opt) {
  if (it.kv.k_tiles == nullptr || it.kv.v_tiles == nullptr) {
    throw std::invalid_argument("efta decode: null KV tile pointers");
  }
  if (it.kv.n == 0) {
    throw std::invalid_argument("efta decode: empty context (n == 0)");
  }
  if (it.q == nullptr || it.out == nullptr) {
    throw std::invalid_argument("efta decode: null q/out pointers");
  }
  if (it.q_len == 0 || it.q_len > KvSlice::kTileRows) {
    throw std::invalid_argument(
        "efta decode: block must hold 1..64 query rows");
  }
  if (it.q_len > it.kv.n) {
    throw std::invalid_argument(
        "efta decode: cache must already hold the block's K/V rows "
        "(q_len <= n)");
  }
  if (opt.stride <= 0 ||
      it.kv.d % static_cast<std::size_t>(opt.stride) != 0) {
    throw std::invalid_argument(
        "efta decode: d must be a multiple of the checksum stride");
  }
  const std::size_t d = it.kv.d;
  if ((it.q_stride != 0 && it.q_stride < d) ||
      (it.out_stride != 0 && it.out_stride < d)) {
    throw std::invalid_argument("efta decode: row stride below d");
  }
}

/// Core causal query block over one tiled KV slice.  The block sits at the
/// end of the context: query row r (global position p = base + r with
/// base = n - q_len) attends rows [0, p] of the cache.  The loop structure
/// runs every row through the same GEMM routine, the same valid-lane
/// masking, the same scalar GEMM II accumulation order and the same fault
/// hooks on the visible lanes — so each output row is bit-identical to
/// efta_decode_step over a context of p+1 tokens, whether the block is a
/// 1-row decode step, a speculative draft block or a 64-row prefill chunk.
/// The block's win is amortization: K/V tiles are loaded, widened and
/// checksum-encoded once per block instead of once per token, and the score
/// GEMM covers all rows at once.
///
/// Hot-path layout: full 64-row tiles are consumed zero-copy straight from
/// the cache storage (only the ragged tail is pad-and-copied into scratch),
/// every fp16 operand is widened exactly once per tile via the bulk (SIMD)
/// conversions, and all GEMMs run over the pre-widened fp32 images — all of
/// which is bit-identical to the former memcpy-and-convert-per-GEMM path
/// because fp16 -> fp32 widening is exact and the MAC order is unchanged.
/// When the slice carries memoized per-tile checksum encodings (serve::
/// TilePool seals them once per full tile), clean runs consume those instead
/// of re-deriving all four encodings per call, dropping the per-token encode
/// cost from O(context) to O(tail).
FtReport block_slice(const DecodeWorkItem& it, const EftaOptions& opt,
                     fault::FaultInjector* inj) {
  const std::size_t n = it.kv.n, d = it.kv.d, R = it.q_len;
  const std::size_t base = n - R;
  const std::size_t B = KvSlice::kTileRows;
  const int s = opt.stride;
  const auto su = static_cast<std::size_t>(s);
  const std::size_t L = B / su;
  const std::size_t nblk = it.kv.tiles();
  const std::size_t qs = it.q_stride == 0 ? d : it.q_stride;
  const std::size_t os = it.out_stride == 0 ? d : it.out_stride;
  FtReport rep;

  // Memoized encodings are only usable on clean runs — an armed (or call-
  // counting) injector must observe the per-call encode hooks — and only
  // when they were built with this call's checksum stride.
  const bool cache_ok = inj == nullptr && it.kv.k_c1 != nullptr &&
                        it.kv.k_c2 != nullptr && it.kv.v_c1 != nullptr &&
                        it.kv.v_c2 != nullptr && it.kv.enc_stride == s;

  // Pre-scaled fp16 queries (the MMA operand rows), exactly as decode does
  // per token, then widened once: every GEMM below consumes the exact fp32
  // image instead of re-converting per GEMM.
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  std::vector<Half> qh(R * d);
  std::vector<float> qf(R * d);
  for (std::size_t r = 0; r < R; ++r) {
    numeric::halves_to_floats(it.q + r * qs, qf.data() + r * d, d);
    for (std::size_t c = 0; c < d; ++c) qf[r * d + c] *= scale;
  }
  numeric::floats_to_halves(qf.data(), qh.data(), R * d);
  numeric::halves_to_floats(qh.data(), qf.data(), R * d);

  std::vector<float> m(R, -std::numeric_limits<float>::infinity());
  std::vector<float> l(R, 0.0f);
  MatrixF oacc(R, d, 0.0f);
  MatrixF oc1(R, su, 0.0f), oc2(R, su, 0.0f);
  MatrixF blockmax(R, nblk);

  MatrixF S(R, B), spre(R, B), schk1(R, su), schk2(R, su);
  // fp16 scratch for the ragged tail only; full tiles are read in place.
  std::vector<Half> ktail(B * d), vtail(B * d);
  // Per-tile fp32 operand images (one bulk conversion each per tile).
  std::vector<float> kf(B * d), vf(B * d);
  // k-major scratch for the int8 fallback path (injector armed): the stored
  // K^T payload dequantizes here, then transposes to logical rows in kf.
  std::vector<float> ktf;
  std::vector<float> kc1f(su * d), kc2f(su * d), vc1f(B * su), vc2f(B * su);
  // Per-row fp16-rounded softmax weights (GEMM II's A operand).
  std::vector<Half> ph(B);
  std::vector<float> pf(B);
  std::vector<float> acc2(d);
  std::vector<float> tchk1(su), tchk2(su);
  MatrixH ek1, ek2, ev1, ev2;  // fresh encodes when the memo can't serve
  for (std::size_t j = 0; j < nblk; ++j) {
    // Rows of this tile holding real context; the remainder is zero padding,
    // exactly the view decode reconstructs per token.
    const std::size_t tile_valid = std::min(B, n - j * B);
    const bool full = tile_valid == B;
    const bool is_i8 = it.kv.fmt != nullptr && it.kv.fmt[j] == TileFmt::kI8;
    const Half* kt = is_i8 ? nullptr : it.kv.k_tiles[j];
    const Half* vt = is_i8 ? nullptr : it.kv.v_tiles[j];
#if defined(__GNUC__) || defined(__clang__)
    // Software prefetch of the next tile's payload stream: the batched path
    // is memory-bound (each tile is consumed once per block), so issuing the
    // first touch a full tile of compute ahead hides the leading miss.  The
    // hardware prefetcher follows the contiguous stream from there.  Pure
    // hint — no semantic effect, so every bit-identity contract holds.
    if (j + 1 < nblk) {
      const std::size_t jn = j + 1;
      if (cache_ok && it.kv.f16t != nullptr && it.kv.f16t[jn] != nullptr) {
        __builtin_prefetch(it.kv.f16t[jn], 0, 3);
        __builtin_prefetch(it.kv.v_tiles[jn], 0, 3);
      } else if (it.kv.fmt != nullptr && it.kv.fmt[jn] == TileFmt::kI8) {
        __builtin_prefetch(it.kv.k_i8[jn], 0, 3);
        __builtin_prefetch(it.kv.v_i8[jn], 0, 3);
      } else {
        __builtin_prefetch(it.kv.k_tiles[jn], 0, 3);
        __builtin_prefetch(it.kv.v_tiles[jn], 0, 3);
      }
    }
#endif
    // Image tier (kF16T policy): the sealed tile's K-side operands were
    // pre-transposed at seal but kept at half width, so a clean tick does
    // no packing for this tile; the fused fp16-operand kernels widen them in
    // registers.  V-side operands need no image — the slab's V tile and
    // sealed column checksums are already row-major axpy streams.
    const Half* himg = (cache_ok && full && it.kv.f16t != nullptr)
                           ? it.kv.f16t[j]
                           : nullptr;
    const float* vsrc = nullptr;   // GEMM II operand, B x d row-major fp32
    const float* vc1src = nullptr; // V column checksums, B x su fp32
    const float* vc2src = nullptr;
    // Half GEMM II operands (kF16T fused path): when set, the axpy loops
    // below stream the stored fp16 rows directly instead of vsrc/vc*src.
    const Half* vsrcH = nullptr;
    const Half* vc1H = nullptr;
    const Half* vc2H = nullptr;
    // Int8 GEMM II operand (fused path): when set, the axpy loop below
    // streams the quantized V rows directly instead of vsrc.
    const std::int8_t* vsrc8 = nullptr;
    float vscale = 1.0f;
    if (is_i8 && cache_ok && it.kv.k_c1[j] != nullptr) {
      // Int8 fast path — the quantized analogue of the image tier.
      // The stored payload is already k-major on the K side and the Half
      // encodings' K blocks are stored transposed, so nothing is packed
      // and nothing dequantizes to scratch: the fused kernels widen the
      // int8 stream in registers (exact power-of-two scale), which is
      // bit-identical to dequantizing first (see numeric/int8_simd.hpp).
      numeric::halves_to_floats(it.kv.k_c1[j], kc1f.data(), d * su);
      numeric::halves_to_floats(it.kv.k_c2[j], kc2f.data(), d * su);
      numeric::halves_to_floats(it.kv.v_c1[j], vc1f.data(), B * su);
      numeric::halves_to_floats(it.kv.v_c2[j], vc2f.data(), B * su);
      numeric::gemm_f32_nn_i8(qf.data(), R, d, it.kv.k_i8[j], B,
                              it.kv.k_scale[j], &S(0, 0), S.cols(), false);
      sim::gemm_f32_nn(qf.data(), R, d, kc1f.data(), su, schk1);
      sim::gemm_f32_nn(qf.data(), R, d, kc2f.data(), su, schk2);
      vsrc8 = it.kv.v_i8[j];
      vscale = it.kv.v_scale[j];
      vc1src = vc1f.data();
      vc2src = vc2f.data();
    } else if (himg != nullptr) {
      // kF16T fast tier: the score GEMMs stream the pre-transposed Half
      // image, widening in registers — exact, ascending-k order unchanged,
      // so bit-identical to the widen-per-block tier below.  GEMM II and
      // the output checksums stream the slab's own fp16 V operands the same
      // way — no fp32 staging for this tile at all.
      const Half* ktimg = himg;                // K^T, d x B halves
      const Half* kc1t = himg + d * B;         // Kc1^T, d x su halves
      const Half* kc2t = kc1t + d * su;        // Kc2^T, d x su halves
      sim::gemm_f32_nnh(qf.data(), R, d, ktimg, B, S);
      sim::gemm_f32_nnh(qf.data(), R, d, kc1t, su, schk1);
      sim::gemm_f32_nnh(qf.data(), R, d, kc2t, su, schk2);
      vsrcH = it.kv.v_tiles[j];
      vc1H = it.kv.v_c1[j];
      vc2H = it.kv.v_c2[j];
    } else {
      if (is_i8) {
        // Int8 fallback (armed injector, or a memo mismatch): materialize
        // the exactly-dequantized fp32 image — the stored K^T transposes
        // back to logical rows — and run the generic widen-per-tile path
        // with fresh encodes over it, bit-identical to the fused fast path
        // above (dequantization is exact and transposition is pure data
        // movement).
        if (ktf.empty()) ktf.resize(B * d);
        numeric::dequantize_i8_to_f32(it.kv.k_i8[j], ktf.data(), B * d,
                                      it.kv.k_scale[j]);
        numeric::transpose_f32(ktf.data(), d, B, kf.data());
        numeric::dequantize_i8_to_f32(it.kv.v_i8[j], vf.data(), B * d,
                                      it.kv.v_scale[j]);
      } else {
        if (!full) {
          // Only the ragged tail tile is materialized: its storage may hold
          // fewer than 64 readable rows (contiguous-cache views), so pad-and-
          // copy it into the zero-filled checksum footprint.
          std::memcpy(ktail.data(), kt, tile_valid * d * sizeof(Half));
          std::memcpy(vtail.data(), vt, tile_valid * d * sizeof(Half));
          std::fill(ktail.begin() + tile_valid * d, ktail.end(), Half());
          std::fill(vtail.begin() + tile_valid * d, vtail.end(), Half());
          kt = ktail.data();
          vt = vtail.data();
          ++testing::tiles_materialized();
        }
        numeric::halves_to_floats(kt, kf.data(), B * d);
        numeric::halves_to_floats(vt, vf.data(), B * d);
      }

      // Checksum encodings: memoized once per sealed tile, or derived fresh
      // (per block — single-token decode re-encodes the tail per token, the
      // residual O(tail) work).
      const Half *kc1, *kc2, *vc1, *vc2;
      if (cache_ok && full && it.kv.k_c1[j] != nullptr) {
        kc1 = it.kv.k_c1[j];
        kc2 = it.kv.k_c2[j];
        vc1 = it.kv.v_c1[j];
        vc2 = it.kv.v_c2[j];
      } else {
        // Encode from the fp32 images widened above — the four encodings
        // must not re-convert the tile four more times.
        ek1 = abft::StridedAbft::encode_rows_strided_widened(kf.data(), B, d,
                                                             s, false, inj);
        ek2 = abft::StridedAbft::encode_rows_strided_widened(kf.data(), B, d,
                                                             s, true, inj);
        ev1 = abft::StridedAbft::encode_cols_strided_widened(vf.data(), B, d,
                                                             s, false, inj);
        ev2 = abft::StridedAbft::encode_cols_strided_widened(vf.data(), B, d,
                                                             s, true, inj);
        kc1 = ek1.data();
        kc2 = ek2.data();
        vc1 = ev1.data();
        vc2 = ev2.data();
      }
      numeric::halves_to_floats(kc1, kc1f.data(), su * d);
      numeric::halves_to_floats(kc2, kc2f.data(), su * d);
      numeric::halves_to_floats(vc1, vc1f.data(), B * su);
      numeric::halves_to_floats(vc2, vc2f.data(), B * su);

      sim::gemm_f32_nt(qf.data(), R, d, kf.data(), B, S);
      sim::gemm_f32_nt(qf.data(), R, d, kc1f.data(), su, schk1);
      sim::gemm_f32_nt(qf.data(), R, d, kc2f.data(), su, schk2);
      vsrc = vf.data();
      vc1src = vc1f.data();
      vc2src = vc2f.data();
    }
    for (std::size_t r = 0; r < R; ++r) {
      // Visible lanes of row r in this tile: its causal prefix, clipped to
      // the tile.  A block never starts past the cache end, so visibility is
      // a per-row prefix of lanes and a per-row prefix of tiles.
      const std::size_t p = base + r;
      if (p < j * B) continue;  // row's causal prefix ends before this tile
      const std::size_t vis = std::min(B, p + 1 - j * B);
      if (inj) {
        for (std::size_t c = 0; c < vis; ++c) {
          S(r, c) = inj->corrupt(fault::Site::kGemm1, S(r, c));
        }
      }
    }
    // Linear verification runs pre-mask over the whole block: every lane —
    // visible, causally masked, or padding — satisfies the checksum relation
    // against this tile, so one block verify witnesses all rows at once.
    rep.gemm1 += abft::StridedAbft::verify_correct(S, schk1, schk2, s,
                                                   opt.abft_rel_threshold);

    for (std::size_t r = 0; r < R; ++r) {
      const std::size_t p = base + r;
      if (p < j * B) continue;
      const std::size_t vis = std::min(B, p + 1 - j * B);

      // Streaming softmax update, the single-row decode loop verbatim:
      // the running max sees only the row's visible lanes.
      float bmax = -std::numeric_limits<float>::infinity();
      for (std::size_t c = 0; c < vis; ++c) bmax = std::max(bmax, S(r, c));
      bmax = fault::corrupt(inj, fault::Site::kReduceMax, bmax);
      blockmax(r, j) = bmax;
      const float mnew = std::max(m[r], bmax);

      for (std::size_t c = 0; c < B; ++c) spre(r, c) = S(r, c);
      for (std::size_t c = 0; c < vis; ++c) {
        S(r, c) = fault::corrupt(inj, fault::Site::kExp,
                                 std::exp(S(r, c) - mnew));
      }
      // Lanes past the causal horizon carry zero softmax weight, exactly
      // like decode's padded lanes.
      for (std::size_t c = vis; c < B; ++c) S(r, c) = 0.0f;

      // Case-2 product check on the row (log domain, double).  Masked and
      // padded lanes participate in score space — decode's convention for
      // lanes that were never exponentiated.
      for (std::size_t jc = 0; jc < su; ++jc) {
        ++rep.exp_check.checks;
        double lhs = 0.0;
        bool bad = false;
        for (std::size_t ll = 0; ll < L; ++ll) {
          const std::size_t col = jc + ll * su;
          if (col >= vis) {
            lhs += static_cast<double>(spre(r, col)) - mnew;
            continue;
          }
          const float pv = S(r, col);
          if (!(pv > 0.0f) || !std::isfinite(pv)) {
            bad = true;
            break;
          }
          lhs += std::log(static_cast<double>(pv));
        }
        const double rhs =
            static_cast<double>(schk1(r, jc)) - static_cast<double>(L) * mnew;
        if (bad || std::fabs(lhs - rhs) > opt.exp_log_threshold) {
          ++rep.exp_check.flagged;
          // Repair the scores via the linear checksum, then re-exponentiate
          // the visible lanes (per-row temporaries: this path only runs
          // under a fault).
          MatrixF srow(1, B), c1row(1, su), c2row(1, su);
          for (std::size_t c = 0; c < B; ++c) srow(0, c) = spre(r, c);
          for (std::size_t c = 0; c < su; ++c) {
            c1row(0, c) = schk1(r, c);
            c2row(0, c) = schk2(r, c);
          }
          abft::StridedAbft::verify_correct(srow, c1row, c2row, s,
                                            opt.abft_rel_threshold);
          for (std::size_t c = 0; c < vis; ++c) {
            S(r, c) = std::exp(srow(0, c) - mnew);
          }
          ++rep.exp_check.recomputed;
          break;
        }
      }

      float rowsum = 0.0f;
      for (std::size_t c = 0; c < B; ++c) rowsum += S(r, c);
      rowsum = fault::corrupt(inj, fault::Site::kReduceSum, rowsum);

      const float f = std::exp(m[r] - mnew);
      for (std::size_t c = 0; c < d; ++c) {
        oacc(r, c) = fault::corrupt(inj, fault::Site::kRescale,
                                    f * oacc(r, c));
      }
      for (std::size_t jc = 0; jc < su; ++jc) {
        oc1(r, jc) *= f;
        oc2(r, jc) *= f;
      }
      l[r] = f * l[r] + rowsum;
      m[r] = mnew;

      // GEMM II (1 x B times B x d) + checksums, decode's scalar
      // accumulation order.  Masked lanes contribute exact zeros: P is
      // exactly 0.0f there, and 0 * v adds a signed zero that cannot change
      // the accumulator.  The row's softmax weights are rounded to fp16
      // once (bulk) instead of once per output column, and the loop runs
      // r2-outer axpy over contiguous V rows — each acc2[c] still sums r2
      // in the same sequential order (and the vector FMA form is
      // bit-identical under the exact-product precondition: fp16 weights
      // against fp16-valued V), so the result is unchanged.
      numeric::floats_to_halves(&S(r, 0), ph.data(), B);
      numeric::halves_to_floats(ph.data(), pf.data(), B);
      std::fill(acc2.begin(), acc2.end(), 0.0f);
      if (vsrc8 != nullptr) {
        // Fused int8 V stream: axpy_f32_i8 widens each quantized row in
        // registers — bit-identical to axpy_f32 over the dequantized row.
        for (std::size_t r2 = 0; r2 < B; ++r2) {
          numeric::axpy_f32_i8(pf[r2], vsrc8 + r2 * d, vscale, acc2.data(),
                               d);
        }
      } else if (vsrcH != nullptr) {
        // Fused fp16 V stream (kF16T tier): axpy_f32_h widens each stored
        // row in registers — bit-identical to axpy_f32 over the widened row.
        for (std::size_t r2 = 0; r2 < B; ++r2) {
          numeric::axpy_f32_h(pf[r2], vsrcH + r2 * d, acc2.data(), d);
        }
      } else {
        for (std::size_t r2 = 0; r2 < B; ++r2) {
          numeric::axpy_f32(pf[r2], vsrc + r2 * d, acc2.data(), d);
        }
      }
      for (std::size_t c = 0; c < d; ++c) {
        oacc(r, c) =
            fault::corrupt(inj, fault::Site::kGemm2, oacc(r, c) + acc2[c]);
      }
      // Output checksum rows: accumulate the s-wide tile contribution r2-
      // ascending into scratch, then add once into the running checksums —
      // the same compute-then-add order as the scalar per-jc loops.
      std::fill(tchk1.begin(), tchk1.end(), 0.0f);
      std::fill(tchk2.begin(), tchk2.end(), 0.0f);
      if (vc1H != nullptr) {
        for (std::size_t r2 = 0; r2 < B; ++r2) {
          numeric::axpy_f32_h(pf[r2], vc1H + r2 * su, tchk1.data(), su);
          numeric::axpy_f32_h(pf[r2], vc2H + r2 * su, tchk2.data(), su);
        }
      } else {
        for (std::size_t r2 = 0; r2 < B; ++r2) {
          numeric::axpy_f32(pf[r2], vc1src + r2 * su, tchk1.data(), su);
          numeric::axpy_f32(pf[r2], vc2src + r2 * su, tchk2.data(), su);
        }
      }
      for (std::size_t jc = 0; jc < su; ++jc) {
        oc1(r, jc) += tchk1[jc];
        oc2(r, jc) += tchk2[jc];
      }
    }
  }

  // SNVR range restriction per row over its own tile-max history.
  for (std::size_t r = 0; r < R; ++r) {
    const std::size_t p = base + r;
    const std::size_t row_tiles = p / B + 1;
    const auto res = softmax::snvr_check_rowsum(
        l[r], std::span<const float>(&blockmax(r, 0), row_tiles), m[r], p + 1,
        opt.snvr_slack);
    if (res.violated) {
      l[r] = res.corrected_value;
      ++rep.range_corrections;
    }
  }

  // Normalize + final unified O verification over the whole block.
  MatrixF ofin(R, d);
  for (std::size_t r = 0; r < R; ++r) {
    const float inv = 1.0f / l[r];
    for (std::size_t c = 0; c < d; ++c) {
      ofin(r, c) = oacc(r, c) * inv;
    }
    for (std::size_t jc = 0; jc < su; ++jc) {
      oc1(r, jc) *= inv;
      oc2(r, jc) *= inv;
    }
  }
  rep.gemm2 += abft::StridedAbft::verify_correct(ofin, oc1, oc2, s,
                                                 opt.abft_rel_threshold);
  for (std::size_t r = 0; r < R; ++r) {
    float* dst = it.out + r * os;
    for (std::size_t c = 0; c < d; ++c) dst[c] = ofin(r, c);
  }
  return rep;
}

}  // namespace

FtReport efta_decode_block(const DecodeWorkItem& item, const EftaOptions& opt,
                           fault::FaultInjector* inj) {
  validate_item(item, opt);
  const std::size_t before = inj ? inj->injected() : 0;
  FtReport rep = block_slice(item, opt, inj);
  if (inj) rep.faults_injected = inj->injected() - before;
  return rep;
}

FtReport efta_decode_step(const KvSlice& kv, std::span<const Half> q,
                          std::span<float> out, const EftaOptions& opt,
                          fault::FaultInjector* inj) {
  if (q.size() != kv.d || out.size() != kv.d) {
    throw std::invalid_argument(
        "efta decode: q/out spans must hold d values");
  }
  return efta_decode_block(DecodeWorkItem{kv, q.data(), out.data(), 1, 0, 0},
                           opt, inj);
}

FtReport efta_decode_step(const MatrixH& k_cache, const MatrixH& v_cache,
                          std::span<const Half> q, std::span<float> out,
                          const EftaOptions& opt, fault::FaultInjector* inj) {
  const std::size_t n = k_cache.rows(), d = k_cache.cols();
  if (v_cache.rows() != n || v_cache.cols() != d) {
    throw std::invalid_argument("efta_decode_step: shape mismatch");
  }
  // A contiguous n x d cache is a degenerate tiled view: tile t starts at
  // row 64t, and the kernel never reads past the valid rows of the ragged
  // final tile.
  const std::size_t B = KvSlice::kTileRows;
  const std::size_t nblk = (n + B - 1) / B;
  std::vector<const Half*> kt(nblk), vt(nblk);
  for (std::size_t j = 0; j < nblk; ++j) {
    kt[j] = k_cache.data() + j * B * d;
    vt[j] = v_cache.data() + j * B * d;
  }
  const KvSlice kv{kt.data(), vt.data(), n, d};
  return efta_decode_step(kv, q, out, opt, inj);
}

FtReport efta_decode_batch(std::span<const DecodeWorkItem> items,
                           const EftaOptions& opt, fault::FaultInjector* inj,
                           std::span<FtReport> per_item) {
  if (!per_item.empty() && per_item.size() != items.size()) {
    throw std::invalid_argument(
        "efta_decode_batch: per_item size must match items");
  }
  // An idle tick must be free: spinning up an OpenMP team for zero items
  // costs a barrier per call, which a scheduler polling an empty queue pays
  // on every tick.
  if (items.empty()) return {};
  // Validate every item up front: an exception must not be raised inside
  // the OpenMP worksharing region (that would terminate the process).
  for (std::size_t i = 0; i < items.size(); ++i) {
    try {
      validate_item(items[i], opt);
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument("efta_decode_batch: item " +
                                  std::to_string(i) + ": " + e.what());
    }
  }
  FtReport total;

  // Any non-null injector — armed or a calls()-counting probe — is
  // deterministic, stateful, and not thread-safe, so it forces the serial
  // path, exactly like efta_decode_block threading the same injector.
  if (inj) {
    for (std::size_t i = 0; i < items.size(); ++i) {
      const std::size_t before = inj->injected();
      FtReport r = block_slice(items[i], opt, inj);
      r.faults_injected = inj->injected() - before;
      if (!per_item.empty()) per_item[i] = r;
      total += r;
    }
    return total;
  }

#pragma omp parallel
  {
    FtReport local;
#pragma omp for schedule(dynamic) nowait
    for (std::size_t i = 0; i < items.size(); ++i) {
      FtReport r = block_slice(items[i], opt, nullptr);
      if (!per_item.empty()) per_item[i] = r;
      local += r;
    }
#pragma omp critical
    total += local;
  }
  return total;
}

std::pair<std::size_t, std::size_t> shard_range(std::size_t shard,
                                                std::size_t nshards,
                                                std::size_t total) {
  if (nshards == 0 || shard >= nshards) {
    throw std::invalid_argument("shard_range: shard index out of range");
  }
  const std::size_t base = total / nshards;
  const std::size_t rem = total % nshards;
  const std::size_t begin = shard * base + std::min(shard, rem);
  return {begin, begin + base + (shard < rem ? 1 : 0)};
}

ShardSpec ShardSpec::for_shard(std::size_t shard, std::size_t nshards,
                               std::size_t total_heads) {
  const auto [begin, end] = shard_range(shard, nshards, total_heads);
  return ShardSpec{begin, end};
}

FtReport efta_decode_batch(std::span<const DecodeWorkItem> items,
                           std::span<const std::size_t> item_heads,
                           const ShardSpec& shard, const EftaOptions& opt,
                           fault::FaultInjector* inj,
                           std::span<FtReport> per_item) {
  if (item_heads.size() != items.size()) {
    throw std::invalid_argument(
        "efta_decode_batch: item_heads size must match items");
  }
  if (!per_item.empty() && per_item.size() != items.size()) {
    throw std::invalid_argument(
        "efta_decode_batch: per_item size must match items");
  }
  // Serial over the shard's own items, in batch order — the same item order
  // the unsharded serial path runs, so a stateful injector threaded through
  // one shard observes its items exactly as the full batch would.
  FtReport total;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (!shard.contains(item_heads[i])) continue;
    try {
      validate_item(items[i], opt);
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument("efta_decode_batch: item " +
                                  std::to_string(i) + ": " + e.what());
    }
    const std::size_t before = inj ? inj->injected() : 0;
    FtReport r = block_slice(items[i], opt, inj);
    if (inj) r.faults_injected = inj->injected() - before;
    if (!per_item.empty()) per_item[i] = r;
    total += r;
  }
  return total;
}

}  // namespace ftt::core
