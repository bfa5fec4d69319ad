#include "transformer/linear.hpp"

#include <algorithm>
#include <cmath>
#include <random>
#include <stdexcept>
#include <utility>

#include "abft/strided_abft.hpp"
#include "numeric/gemm_simd.hpp"

namespace ftt::transformer {

using abft::StridedAbft;
using numeric::Half;
using tensor::MatrixF;
using tensor::MatrixH;

namespace {

constexpr std::size_t kTile = StridedAbft::kTile;
constexpr auto kStride = static_cast<std::size_t>(StridedAbft::kDefaultStride);
/// Checksum columns per 64-column output tile: s unweighted, s weighted.
constexpr std::size_t kChkCols = 2 * kStride;

/// W^T (in x out) of an out x in weight.
MatrixH transpose(const MatrixH& w) {
  MatrixH wt(w.cols(), w.rows());
  for (std::size_t n = 0; n < w.rows(); ++n) {
    for (std::size_t k = 0; k < w.cols(); ++k) wt(k, n) = w(n, k);
  }
  return wt;
}

/// The sealed checksum block of an out x in weight: for each 64-row weight
/// tile t, columns [t * 2s, t * 2s + s) hold the unweighted stride-s encode
/// and the next s the weighted one, transposed to k-major.  These are the
/// encodes StridedAbft::gemm_nt derives per call (same routine, same bits).
MatrixH seal(const MatrixH& w) {
  const std::size_t K = w.cols(), tiles = w.rows() / kTile;
  MatrixH ct(K, tiles * kChkCols);
  for (std::size_t t = 0; t < tiles; ++t) {
    const tensor::MatrixHView tile{w.data() + t * kTile * K, kTile, K, K};
    for (const bool weighted : {false, true}) {
      const MatrixH enc = StridedAbft::encode_rows_strided(
          tile, StridedAbft::kDefaultStride, weighted, nullptr);
      const std::size_t c0 = t * kChkCols + (weighted ? kStride : 0);
      for (std::size_t j = 0; j < kStride; ++j) {
        for (std::size_t k = 0; k < K; ++k) ct(k, c0 + j) = enc(j, k);
      }
    }
  }
  return ct;
}

/// Rows [r0, r0 + rows) x columns [c0, c0 + cols) of m.
MatrixH block(const MatrixH& m, std::size_t r0, std::size_t rows,
              std::size_t c0, std::size_t cols) {
  MatrixH out(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    std::copy_n(m.data() + (r0 + r) * m.cols() + c0, cols,
                out.data() + r * cols);
  }
  return out;
}

}  // namespace

Linear::Linear(std::size_t in_features, std::size_t out_features,
               std::uint64_t seed, bool bias)
    : in_(in_features), out_(out_features) {
  if (out_ % kTile != 0) {
    throw std::invalid_argument(
        "Linear: out_features must be a multiple of the 64-row ABFT tile");
  }
  // Scaled-normal init, typical of trained transformer projections.
  std::mt19937_64 rng(seed);
  std::normal_distribution<float> dist(
      0.0f, 1.0f / std::sqrt(static_cast<float>(in_)));
  MatrixH w(out_, in_);
  for (std::size_t i = 0; i < w.size(); ++i) w.data()[i] = Half(dist(rng));
  if (bias) {
    bias_.assign(out_, 0.0f);
    std::normal_distribution<float> bdist(0.0f, 0.02f);
    for (auto& b : bias_) b = bdist(rng);
  }
  wt_ = transpose(w);
  ct_ = seal(w);
}

Linear::Linear(MatrixH wt, MatrixH ct, std::vector<float> bias)
    : in_(wt.rows()), out_(wt.cols()), wt_(std::move(wt)), ct_(std::move(ct)),
      bias_(std::move(bias)) {}

MatrixH Linear::weight() const { return transpose(wt_); }

Linear Linear::slice_out(std::size_t col0, std::size_t cols) const {
  if (col0 % kTile != 0 || cols % kTile != 0 || col0 + cols > out_) {
    throw std::invalid_argument(
        "Linear::slice_out: column range must be 64-tile aligned and within "
        "out_features");
  }
  // Whole output tiles of W^T plus exactly those tiles' checksum columns.
  std::vector<float> b;
  if (!bias_.empty()) {
    b.assign(bias_.begin() + static_cast<std::ptrdiff_t>(col0),
             bias_.begin() + static_cast<std::ptrdiff_t>(col0 + cols));
  }
  return Linear(block(wt_, 0, in_, col0, cols),
                block(ct_, 0, in_, col0 / kTile * kChkCols,
                      cols / kTile * kChkCols),
                std::move(b));
}

Linear Linear::slice_in(std::size_t col0, std::size_t cols) const {
  if (col0 + cols > in_ || cols == 0) {
    throw std::invalid_argument(
        "Linear::slice_in: column range must be non-empty and within "
        "in_features");
  }
  return Linear(block(wt_, col0, cols, 0, out_),
                block(ct_, col0, cols, 0, ct_.cols()), {});
}

abft::Report Linear::forward(const MatrixF& x, MatrixF& y,
                             LinearProtect protect, fault::FaultInjector* inj,
                             float rel_threshold) const {
  if (x.cols() != in_) throw std::invalid_argument("Linear: in_features");
  const std::size_t M = x.rows();
  if (y.rows() != M || y.cols() != out_) y = MatrixF(M, out_);
  if (out_ == 0) return {};  // empty slice_out shard: nothing to compute

  // Round activations to fp16 once (the tensor-core operand).
  MatrixH xh(M, in_);
  numeric::floats_to_halves(x.data(), xh.data(), xh.size());

  // Widen once; stream the sealed W^T (and C^T) through the fp16-operand
  // GEMM.  Ascending-k accumulation: bit-identical to gemm_fp16_nt.
  std::vector<float> a(M * in_);
  numeric::halves_to_floats(xh.data(), a.data(), a.size());
  numeric::gemm_f32_nnh(a.data(), M, in_, wt_.data(), out_, y.data(), out_,
                        /*accumulate=*/false);
  if (inj != nullptr) {
    for (std::size_t i = 0; i < y.size(); ++i) {
      y.data()[i] = inj->corrupt(fault::Site::kLinear, y.data()[i]);
    }
  }

  abft::Report rep;
  if (protect == LinearProtect::kStridedAbft) {
    MatrixF chk(M, ct_.cols());
    numeric::gemm_f32_nnh(a.data(), M, in_, ct_.data(), ct_.cols(),
                          chk.data(), ct_.cols(), /*accumulate=*/false);
    MatrixF chk1(M, kStride), chk2(M, kStride);
    for (std::size_t t = 0; t < out_ / kTile; ++t) {
      // Hooks interleave chk1/chk2 in (i, j) order, as StridedAbft::gemm_nt.
      for (std::size_t i = 0; i < M; ++i) {
        const float* row = &chk(i, t * kChkCols);
        for (std::size_t j = 0; j < kStride; ++j) {
          chk1(i, j) = fault::corrupt(inj, fault::Site::kChecksum, row[j]);
          chk2(i, j) =
              fault::corrupt(inj, fault::Site::kChecksum, row[kStride + j]);
        }
      }
      rep += StridedAbft::verify_correct(y, chk1, chk2,
                                         StridedAbft::kDefaultStride,
                                         rel_threshold, t * kTile, kTile);
    }
  }

  if (!bias_.empty()) {
    for (std::size_t r = 0; r < M; ++r) {
      float* row = &y(r, 0);
      for (std::size_t c = 0; c < out_; ++c) row[c] += bias_[c];
    }
  }
  return rep;
}

sim::CostBreakdown Linear::costs(double m) const {
  sim::CostBreakdown b;
  b[sim::Phase::kGemm].tc_flops =
      2.0 * m * static_cast<double>(out_) * static_cast<double>(in_);
  b[sim::Phase::kMemory].hbm_bytes =
      (m * static_cast<double>(in_) + m * static_cast<double>(out_) +
       static_cast<double>(in_) * static_cast<double>(out_)) *
      2.0;
  b[sim::Phase::kRescale].fp32_flops = m * static_cast<double>(out_);  // bias
  return b;
}

sim::CostBreakdown Linear::protection_costs(double m) const {
  return StridedAbft::costs(m, static_cast<double>(out_),
                            static_cast<double>(in_),
                            StridedAbft::kDefaultStride);
}

namespace testing {

void flip_weight_bit(Linear& l, std::size_t out_row, std::size_t in_col,
                     unsigned bit) {
  Half& h = l.wt_(in_col, out_row);
  h = Half::from_bits(
      static_cast<std::uint16_t>(h.bits() ^ (1u << (bit & 15u))));
}

const MatrixH& sealed_checksums(const Linear& l) noexcept { return l.ct_; }

MatrixH seal_checksums(const MatrixH& w) { return seal(w); }

}  // namespace testing

}  // namespace ftt::transformer
