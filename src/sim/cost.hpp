#pragma once
// Analytic GPU cost model.
//
// The paper reports wall-clock on a 40 GB A100-PCIE.  With no GPU available,
// each kernel in this library exposes exact closed-form operation counts
// (tensor-core MACs, fp32 ops, SFU exp ops, HBM bytes, warp shuffles, kernel
// launches) broken down by the pipeline phases of Figs. 3/5, and this model
// converts counts to modeled seconds with a per-phase roofline.  All paper
// figures compare *ratios* (speedups, overhead percentages), which are
// functions of these counts; see docs/BENCHMARKS.md ("Paper figures: the
// cost-model substitution") for the substitution argument.

#include <array>
#include <cstddef>
#include <string_view>

namespace ftt::sim {

/// Pipeline phases matching the workflow diagrams (Figs. 3 and 5):
/// LD/ST = kMemory, CCG = kChecksumGen, GEMM = kGemm, EXP+RSM = kSoftmax,
/// RS&RSC = kRescale, CCV/NVR = kVerify, DMR replica = kDmr.
enum class Phase {
  kMemory = 0,
  kChecksumGen,
  kGemm,
  kSoftmax,
  kRescale,
  kVerify,
  kDmr,
  kCount,
};

constexpr std::size_t kPhaseCount = static_cast<std::size_t>(Phase::kCount);

std::string_view phase_name(Phase p) noexcept;

/// Raw operation counts for one phase (or aggregated).
struct Costs {
  double tc_flops = 0;    ///< tensor-core fp16 MAC flops (2 per MAC)
  double fp32_flops = 0;  ///< CUDA-core fp32 flops (adds, muls, compares)
  double sfu_ops = 0;     ///< special-function ops (exp)
  double hbm_bytes = 0;   ///< HBM reads + writes
  double shuffles = 0;    ///< inter-thread (warp shuffle) word transfers
  double syncs = 0;       ///< verification sync points (pipeline drains)
  double launches = 0;    ///< kernel launches

  Costs& operator+=(const Costs& o) noexcept {
    tc_flops += o.tc_flops;
    fp32_flops += o.fp32_flops;
    sfu_ops += o.sfu_ops;
    hbm_bytes += o.hbm_bytes;
    shuffles += o.shuffles;
    syncs += o.syncs;
    launches += o.launches;
    return *this;
  }
  friend Costs operator+(Costs a, const Costs& b) noexcept { return a += b; }
  Costs& scale(double f) noexcept {
    tc_flops *= f;
    fp32_flops *= f;
    sfu_ops *= f;
    hbm_bytes *= f;
    shuffles *= f;
    syncs *= f;
    launches *= f;
    return *this;
  }
};

/// Per-phase cost table for one kernel (or a whole pipeline).
struct CostBreakdown {
  std::array<Costs, kPhaseCount> by_phase{};

  Costs& operator[](Phase p) noexcept {
    return by_phase[static_cast<std::size_t>(p)];
  }
  const Costs& operator[](Phase p) const noexcept {
    return by_phase[static_cast<std::size_t>(p)];
  }

  [[nodiscard]] Costs total() const noexcept {
    Costs t;
    for (const auto& c : by_phase) t += c;
    return t;
  }

  CostBreakdown& operator+=(const CostBreakdown& o) noexcept {
    for (std::size_t i = 0; i < kPhaseCount; ++i) by_phase[i] += o.by_phase[i];
    return *this;
  }
  friend CostBreakdown operator+(CostBreakdown a, const CostBreakdown& b) {
    return a += b;
  }
  /// Scale every phase uniformly (e.g. one per-slice kernel cost replicated
  /// across batch x heads independent slices).
  CostBreakdown& scale(double f) noexcept {
    for (auto& c : by_phase) c.scale(f);
    return *this;
  }
};

/// A100-PCIE-40GB machine description with achievable-fraction knobs.
struct MachineModel {
  double tc_peak = 312e12;      ///< dense fp16 tensor-core flop/s
  double fp32_peak = 19.5e12;   ///< CUDA-core fp32 flop/s
  double sfu_peak = 4.875e12;   ///< special-function (exp) op/s (1/4 fp32)
  double hbm_bw = 1.555e12;     ///< HBM bytes/s
  double shuffle_rate = 9.75e12;  ///< warp-shuffle words/s
  double launch_latency = 5e-6;   ///< per kernel launch, seconds
  /// Amortized cost of one in-kernel verification sync point: every CCV/NVR
  /// stage drains the MMA pipeline before comparing, which neither overlaps
  /// with compute nor with other CTAs' syncs on the same SM.
  double sync_latency = 6e-10;
  double hbm_capacity = 40e9;     ///< bytes

  double tc_eff = 0.60;
  double fp32_eff = 0.85;   ///< streaming encode/verify loops are ILP-friendly
  double sfu_eff = 0.85;
  double hbm_eff = 0.85;
  double shuffle_eff = 0.50;

  /// Fraction of non-critical-resource time that cannot be hidden behind the
  /// dominant resource.  Inside one fused kernel, CUDA-core checksum work
  /// overlaps tensor-core MMAs, but data dependencies (verify-after-GEMM,
  /// EXP-after-subtract) serialize part of it.
  double serialization = 0.30;

  /// Roofline time for one phase: slowest of the participating resources.
  [[nodiscard]] double phase_seconds(const Costs& c) const noexcept;

  /// Total modeled time: per-resource totals across all phases, with the
  /// dominant resource fully charged and the rest partially hidden
  /// (`serialization` exposed), plus launch latency.
  [[nodiscard]] double seconds(const CostBreakdown& b) const noexcept;

  /// Does a working set of `bytes` fit in HBM?  Used to reproduce the OOM of
  /// the decoupled framework at seq_len = 16k (Fig. 9, bottom).
  [[nodiscard]] bool fits(double bytes) const noexcept {
    return bytes <= hbm_capacity;
  }
};

/// Counts for a plain M x N x K fp16 tensor-core GEMM (2*M*N*K flops).
Costs gemm_costs(double m, double n, double k) noexcept;

}  // namespace ftt::sim
