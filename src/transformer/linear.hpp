#pragma once
// Linear (projection / feed-forward) layers with strided-ABFT protection.
//
// The paper protects every linear module — QKV/output projections and the
// feed-forward GEMMs — with the same tensor-checksum strided ABFT used inside
// EFTA (Fig. 1, right panel).  Weights are fp16 (tensor-core operands),
// activations are fp32 rounded through fp16 at the GEMM boundary, and the
// checksum tiles follow the 64-row TiledMMA footprint.
//
// Weights are static, so their checksums are too: a Linear is *sealed* once,
// at construction, into a k-major fp16 image — W^T (in x out) plus its
// strided checksum block C^T (in x out/64 * 2s: for each 64-row weight tile,
// the s unweighted then the s weighted stride-s encodes, transposed).  A
// clean forward widens the activations once, streams one fp16-operand GEMM
// over W^T and one over C^T, and verifies every output tile against the
// sealed checksums.  Because the checksums were taken from the weights at
// seal time, a weight corrupted at rest afterwards shows up as a checksum
// mismatch and is corrected per call (the stored weight is not repaired).
//
// Same bits as a per-call encode: widening is exact, every output element
// still accumulates in ascending-k order, and the sealed encodes are the
// very values StridedAbft::gemm_nt derives per call — so the payload, the
// checksum values and the Report counters all equal the per-call path.  A
// call carrying a FaultInjector runs the same path: hooks fire on computed
// values (kLinear per output, kChecksum per checksum-GEMM output); sealed
// data is checked, never re-encoded — as for the sealed KV tiles.

#include <cstdint>
#include <span>
#include <vector>

#include "abft/report.hpp"
#include "fault/fault.hpp"
#include "sim/cost.hpp"
#include "tensor/tensor.hpp"

namespace ftt::transformer {

enum class LinearProtect { kNone, kStridedAbft };

class Linear;

namespace testing {
/// Flip one bit of the sealed weight W(out_row, in_col) — a weight corrupted
/// at rest, after its checksums were sealed.  Test-only; never a serving API.
void flip_weight_bit(Linear& l, std::size_t out_row, std::size_t in_col,
                     unsigned bit);
/// The sealed checksum block C^T (in x out/64 * 2s).
[[nodiscard]] const tensor::MatrixH& sealed_checksums(const Linear& l) noexcept;
/// A fresh seal of an out x in fp16 weight: the C^T block a Linear holding
/// `w` would carry.
[[nodiscard]] tensor::MatrixH seal_checksums(const tensor::MatrixH& w);
}  // namespace testing

class Linear {
 public:
  /// out_features must be a multiple of 64 (the checksum tile).
  Linear(std::size_t in_features, std::size_t out_features, std::uint64_t seed,
         bool bias = true);

  /// y = x W^T + b.  x: M x in, y: M x out.  Returns the ABFT report when
  /// protection is enabled.
  abft::Report forward(const tensor::MatrixF& x, tensor::MatrixF& y,
                       LinearProtect protect = LinearProtect::kNone,
                       fault::FaultInjector* inj = nullptr,
                       float rel_threshold = 0.02f) const;

  [[nodiscard]] std::size_t in_features() const noexcept { return in_; }
  [[nodiscard]] std::size_t out_features() const noexcept { return out_; }
  /// The out x in fp16 weight, de-transposed from the sealed image (a copy).
  [[nodiscard]] tensor::MatrixH weight() const;
  /// Empty when bias is disabled (and on slice_in shards, which must add
  /// the bias exactly once — after the partial sums are combined).
  [[nodiscard]] std::span<const float> bias() const noexcept { return bias_; }

  /// Column-parallel shard: a Linear computing out-features
  /// [col0, col0 + cols) of this layer (its W^T columns and their sealed
  /// checksum columns are copied once, at slice time — no re-encode).  Both
  /// col0 and cols must be multiples of the 64-column ABFT tile, so the
  /// shard's checksum tiles are exactly a subset of the full layer's — its
  /// forward() output values AND its per-tile ABFT report counters are
  /// bitwise/integer-exactly the full layer's restriction to those columns,
  /// which is what makes a column-sharded projection bit-identical to the
  /// solo engine for any shard count.  cols == 0 yields a valid empty shard
  /// whose forward() is a no-op.
  [[nodiscard]] Linear slice_out(std::size_t col0, std::size_t cols) const;

  /// Row-parallel shard: in-features [col0, col0 + cols), bias dropped.
  /// Takes rows [col0, col0 + cols) of W^T and of C^T: checksum row k
  /// depends only on weight column k, so those rows are exactly the sliced
  /// layer's seal.  Shards produce *partial sums* that a combiner must
  /// reduce (and then add this layer's bias() once); the reduction
  /// re-associates float addition, so — unlike slice_out — the combined
  /// result is deterministic for a fixed shard count and combine order but
  /// NOT bitwise-equal to the solo GEMM.  No tile-alignment requirement on
  /// the input split.
  [[nodiscard]] Linear slice_in(std::size_t col0, std::size_t cols) const;

  /// Counts for one forward pass over M rows (unprotected payload).
  [[nodiscard]] sim::CostBreakdown costs(double m) const;
  /// Protection overhead for one forward pass.
  [[nodiscard]] sim::CostBreakdown protection_costs(double m) const;

 private:
  /// Slice constructor: adopt a pre-sealed image and bias.
  Linear(tensor::MatrixH wt, tensor::MatrixH ct, std::vector<float> bias);

  friend void testing::flip_weight_bit(Linear&, std::size_t, std::size_t,
                                       unsigned);
  friend const tensor::MatrixH& testing::sealed_checksums(
      const Linear&) noexcept;

  std::size_t in_, out_;
  tensor::MatrixH wt_;       ///< in x out: W^T, k-major
  tensor::MatrixH ct_;       ///< in x out/64 * 2s: sealed checksums, k-major
  std::vector<float> bias_;  ///< empty when bias is disabled
};

}  // namespace ftt::transformer
