#pragma once
// Strided ABFT with tensor checksums, Eqs. (12)-(15) and Fig. 7.
//
// The SM80 MMA thread layout puts row elements at stride 8 (the atom's N) and
// column elements at stride 64 (the TiledMMA's M) in the *same thread*, so a
// checksum that sums elements at that stride can be encoded and verified with
// purely intra-thread arithmetic — no warp shuffles.  The checksum of a
// B x d operand block is therefore a *tensor*: s = 8 virtual rows (columns),
// each the (optionally index-weighted) sum of every stride-8 slice.
//
// Compared to the single element checksum, the s-wide tensor checksum keeps
// s independent residue classes per row, so up to s errors per row can be
// located and corrected as long as no two fall in the same class — the
// "up to a factor of 8" coverage gain of Fig. 12 (left).
//
// Column checksums would need stride 64 and a 64 x d layout (8x the memory of
// the row checksum), which is why the paper — and this implementation —
// adopts a row-checksum-only design for attention.

#include "abft/report.hpp"
#include "fault/fault.hpp"
#include "sim/cost.hpp"
#include "tensor/tensor.hpp"

namespace ftt::abft {

struct StridedAbft {
  /// Default checksum width: the MMA atom's N dimension.
  static constexpr int kDefaultStride = 8;
  /// Operand tile height: the TiledMMA's M dimension.  Checksums are encoded
  /// per tile so the c2 weights stay in [1, tile/s] and fit fp16 comfortably.
  static constexpr int kTile = 64;

  /// Collapse the rows of X (R x C, R % s == 0) at stride `s` into an s x C
  /// checksum: out(jc, c) = sum_l w_l * X(jc + s*l, c), w_l = 1 (unweighted)
  /// or l+1 (weighted).  Encoded in fp16 — the checksum rides the same
  /// tensor-core GEMM as the payload (Eq. 14).  The view overload consumes
  /// a KV-cache tile in place (no owning-Matrix materialization).
  static tensor::MatrixH encode_rows_strided(tensor::MatrixHView X, int s,
                                             bool weighted,
                                             fault::FaultInjector* inj);
  static tensor::MatrixH encode_rows_strided(const tensor::MatrixH& X, int s,
                                             bool weighted,
                                             fault::FaultInjector* inj);
  /// Encode from a pre-widened dense fp32 image of the fp16 operand (exact
  /// values, so bit-identical to the fp16 overloads): the decode hot path
  /// already holds each tile's widened image and must not re-convert it
  /// four times to derive the four encodings.
  static tensor::MatrixH encode_rows_strided_widened(const float* xf,
                                                     std::size_t rows,
                                                     std::size_t cols, int s,
                                                     bool weighted,
                                                     fault::FaultInjector* inj);
  /// Encode directly from the stored fp16 payload (dense row-major Half):
  /// the accumulation streams the Half rows through axpy_f32_h, whose
  /// in-register widen is exact and whose l-order matches the overloads
  /// above, so the result is bit-identical to encoding a pre-widened image
  /// — with no fp32 staging pass (the single-pass seal path).
  static tensor::MatrixH encode_rows_strided_h(const numeric::Half* x,
                                               std::size_t rows,
                                               std::size_t cols, int s,
                                               bool weighted,
                                               fault::FaultInjector* inj);

  /// Collapse the columns of X (R x C, C % s == 0) at stride `s` into an
  /// R x s checksum: out(r, jc) = sum_l w_l * X(r, jc + s*l).  Used for the
  /// V operand of GEMM II.
  static tensor::MatrixH encode_cols_strided(tensor::MatrixHView X, int s,
                                             bool weighted,
                                             fault::FaultInjector* inj);
  static tensor::MatrixH encode_cols_strided(const tensor::MatrixH& X, int s,
                                             bool weighted,
                                             fault::FaultInjector* inj);
  static tensor::MatrixH encode_cols_strided_widened(const float* xf,
                                                     std::size_t rows,
                                                     std::size_t cols, int s,
                                                     bool weighted,
                                                     fault::FaultInjector* inj);
  static tensor::MatrixH encode_cols_strided_h(const numeric::Half* x,
                                               std::size_t rows,
                                               std::size_t cols, int s,
                                               bool weighted,
                                               fault::FaultInjector* inj);

  /// Verify an R x C payload S against its two strided checksums chk1/chk2
  /// (each R x s): for every (row, residue class jc) compare chk1 with the
  /// recomputed strided sum; locate the column offset l* from the c2/c1
  /// residual ratio and correct in place.  `col0` offsets the check into a
  /// wider matrix (for per-tile verification of a big GEMM).
  static Report verify_correct(tensor::MatrixF& S, const tensor::MatrixF& chk1,
                               const tensor::MatrixF& chk2, int s,
                               float relative_threshold, std::size_t col0 = 0,
                               std::size_t cols = 0);

  /// Fully protected C = A * B^T (A: M x K fp16, B: N x K fp16, C: M x N).
  /// B's rows are tiled by kTile; each tile contributes an s-wide tensor
  /// checksum verified independently.  This is the building block for EFTA's
  /// GEMM I, and the per-call-encode path of the protected linears (which
  /// otherwise verify against checksums sealed at construction).
  static Report gemm_nt(const tensor::MatrixH& A, const tensor::MatrixH& B,
                        tensor::MatrixF& C, int s, float relative_threshold,
                        fault::FaultInjector* inj,
                        fault::Site gemm_site = fault::Site::kGemm1);

  /// Protection overhead (CCG + checksum GEMM + CCV) for one M x N x K GEMM
  /// with stride s.  No shuffle term: encoding/verification is intra-thread.
  static sim::CostBreakdown costs(double m, double n, double k, int s);
};

}  // namespace ftt::abft
