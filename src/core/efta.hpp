#pragma once
// End-to-End Fault Tolerant Attention (EFTA) — the paper's core contribution
// (§3.2-3.4, Figs. 4-5, Algorithm 1).
//
// One fused kernel streams K/V blocks against each Q row-block, exactly like
// flash attention, and carries fault tolerance *through* the computation:
//
//   GEMM I     S_ij = Q_i K_j^T          strided tensor checksums ride the
//   subtract   S_ij - m_ij                same per-row checksum (linear)
//   EXP        P_ij = exp(...)            multiplicative checksum relation
//   GEMM II    O_i += P_ij V_j            V column checksums; per-row scaling
//   rescale    diag(e^{m_old-m_new}) O_i  commutes with row checksums
//   reduce-sum l_ij                       SNVR range restriction (Case 3)
//   normalize  O_i / l_i                  rides the O checksum
//
// Because the tensor checksums are *per row*, the diagonal rescale and the
// final 1/l normalization commute with them — this is what lets one checksum
// witness GEMM II + rescale + normalization end-to-end (Algorithm 1, lines
// 18-28), which classic column checksums cannot do (each row is scaled by a
// different factor, breaking any sum across rows).
//
// `unified_verification = false` gives the per-iteration-verify EFTA of
// Tables 1-2 (left columns); `true` gives EFTA-optimized: the P check stays
// per-iteration (P is consumed in place by GEMM II, so its errors must not
// propagate — Algorithm 1 line 13), but the O checksum and the rowsum range
// are checked once after the loop.

#include "attention/attention.hpp"
#include "attention/ft_report.hpp"
#include "fault/fault.hpp"

namespace ftt::core {

/// Which ABFT scheme protects the two GEMMs (Fig. 11 comparison).
enum class GemmProtect {
  kNone,     ///< unprotected (pure flash attention)
  kStrided,  ///< tensor checksums, intra-thread (the paper's design)
  kElement,  ///< classic element checksums (traditional ABFT)
};

/// How the softmax chain is protected (Fig. 13 comparison).
enum class SoftmaxProtect {
  kNone,
  kSNVR,  ///< checksum reuse for EXP + range restriction for rowsum
  kDMR,   ///< duplicated block-softmax evaluation
};

struct EftaOptions {
  std::size_t block = 64;  ///< B_r = B_c tile size along seq_len
  int stride = 8;          ///< checksum width s (the MMA atom's N)
  /// Decoder (causal) masking.  Off-diagonal blocks keep full protection;
  /// the diagonal block is linearly verified *before* masking (the mask
  /// breaks the checksum relation), and its EXP check is skipped.
  bool causal = false;
  GemmProtect gemm = GemmProtect::kStrided;
  SoftmaxProtect softmax = SoftmaxProtect::kSNVR;
  bool unified_verification = false;  ///< EFTA-optimized (Algorithm 1)
  float abft_rel_threshold = 0.02f;  ///< L1-relative checksum compare (Fig. 12 sweep)
  /// Absolute residual threshold of the log-domain EXP product check: the
  /// residual equals the score perturbation itself, so this bounds the
  /// worst undetected attention-weight distortion to e^threshold (Fig. 14).
  float exp_log_threshold = 0.1f;
  /// NVR bound on |score|: post-layernorm fp16 inputs cannot produce scores
  /// beyond a few hundred, so values past this are compute faults and trigger
  /// checksum repair *before* the running max is poisoned.
  float score_bound = 1e4f;
  float dmr_eps = 1e-3f;
  float snvr_slack = 1e-3f;
};

/// Run EFTA.  O receives the normalized attention output in fp32.  When
/// `inj` is armed the kernel runs serially (the injector is deterministic and
/// stateful); otherwise slices are OpenMP-parallel.
attention::FtReport efta_attention(const tensor::Tensor4H& Q,
                                   const tensor::Tensor4H& K,
                                   const tensor::Tensor4H& V,
                                   tensor::Tensor4F& O,
                                   const EftaOptions& opt = {},
                                   fault::FaultInjector* inj = nullptr);

/// Protection overhead split by protected target, matching the paper's
/// breakdown figures: Fig. 10 stacks QK^T / softmax / PV protection, Fig. 11
/// compares ABFT variants (qkt + pv only), Fig. 13 compares softmax
/// protection (softmax only).
struct EftaOverheadByTarget {
  sim::CostBreakdown qkt;      ///< K encode + S checksum GEMM + S verify
  sim::CostBreakdown softmax;  ///< EXP product check, range checks, DMR
  sim::CostBreakdown pv;       ///< V encode + O checksum GEMM/rescale/verify
  [[nodiscard]] sim::CostBreakdown total() const { return qkt + softmax + pv; }
};
EftaOverheadByTarget efta_overhead_by_target(const attention::AttnShape& s,
                                             const EftaOptions& opt);

/// Modeled cost of the *protection only* (CCG + checksum GEMM + CCV/NVR +
/// DMR), phase-split per Fig. 5.  Add `flash_attention_costs` for the total.
sim::CostBreakdown efta_protection_costs(const attention::AttnShape& s,
                                         const EftaOptions& opt);

/// Full modeled cost: unprotected flash attention + protection.
sim::CostBreakdown efta_costs(const attention::AttnShape& s,
                              const EftaOptions& opt);

/// Modeled cost of one protected causal query block (efta_decode_block):
/// `rows` query rows at positions [context - rows, context) streaming over
/// ceil(context/64) KV tiles, including the per-block checksum encodes, the
/// per-row EXP product check, and the final unified O verification.  One
/// formula covers all three serving workloads — rows = 1 is a decode step,
/// rows = k+1 a speculative draft block, rows = 64 a prefill chunk — and
/// dividing the token-by-token sum by the block cost is the modeled
/// amortization win (tile loads + encodes paid once per block instead of
/// once per token), the speculative-decode term of the serving cost model.
sim::CostBreakdown efta_decode_block_costs(std::size_t context,
                                           std::size_t rows, std::size_t dim,
                                           const EftaOptions& opt);

}  // namespace ftt::core
