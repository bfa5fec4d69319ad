// Figure 9: scaled execution time and fault tolerance overhead of the
// end-to-end FT attention vs the decoupled (operation-level) FT attention.
//
// Paper setup: total token budget 16K (batch adjusted per seq length), two
// attention configs (head=16 dim=64 and head=32 dim=128).  The bars are
// normalized to the decoupled *unprotected* baseline = 1.0; the percentage on
// top is decoupled_FT / EFTA_FT (speedup).  The decoupled pipeline OOMs at
// seq 16k for the large config (fp32 S and P intermediates exceed 40 GB).
//
// Paper shape to reproduce: speedups ~4-5.2x (h16) and ~2.2-3.1x (h32),
// averages 447% / 244%, OOM at 16k (h32 only).

#include "attention/decoupled_ft.hpp"
#include "bench_util.hpp"
#include "core/efta.hpp"
#include "tensor/tensor.hpp"

namespace fa = ftt::attention;
namespace fc = ftt::core;

namespace {

void run_config(std::size_t heads, std::size_t dim) {
  const auto m = bench::machine();
  fc::EftaOptions efta_opt;
  efta_opt.unified_verification = false;  // Fig. 9 uses the pre-optimized EFTA

  std::printf("\nFT-Attention Mechanism (head=%zu, dim=%zu), 16K total tokens\n",
              heads, dim);
  std::printf("%-6s %12s %12s %12s %12s %10s %8s\n", "seq", "base(ms)",
              "dec-FT(ms)", "e2e(ms)", "e2e-FT(ms)", "FT-ovh", "speedup");

  double speedup_sum = 0.0;
  int speedup_n = 0;
  for (const std::size_t seq : bench::kPaperSeqs) {
    const auto shape = fa::paper_shape(seq, heads, dim);

    const double ws = fa::decoupled_workspace_bytes(shape);
    const double t_base = m.seconds(fa::decoupled_attention_costs(shape));
    const double t_dec = m.seconds(fa::decoupled_ft_costs(shape));
    const double t_e2e = m.seconds(fa::flash_attention_costs(shape));
    const double t_efta = m.seconds(fc::efta_costs(shape, efta_opt));

    if (!m.fits(ws)) {
      std::printf("%-6s %12.3f %12s %12.3f %12.3f %9.1f%% %8s\n",
                  bench::seq_label(seq).c_str(), t_base * 1e3, "OOM",
                  t_e2e * 1e3, t_efta * 1e3,
                  100.0 * (t_efta - t_e2e) / t_e2e, "OOM");
      continue;
    }
    const double speedup = t_dec / t_efta;
    speedup_sum += speedup;
    ++speedup_n;
    std::printf("%-6s %12.3f %12.3f %12.3f %12.3f %9.1f%% %7.0f%%\n",
                bench::seq_label(seq).c_str(), t_base * 1e3, t_dec * 1e3,
                t_e2e * 1e3, t_efta * 1e3,
                100.0 * (t_efta - t_e2e) / t_e2e, 100.0 * speedup);
  }
  std::printf("average speedup over decoupled FT: %.0f%%  (paper: %s)\n",
              100.0 * speedup_sum / speedup_n,
              heads == 16 ? "447%" : "244%");
}

void measured_sanity() {
  // Reduced-scale CPU measurement of the same kernels.  NOTE: the host has
  // no HBM bottleneck, no kernel-launch latency and a large cache, so the
  // decoupled pipeline is NOT penalized here the way the A100 penalizes it —
  // Figure 9's ordering is a property of the GPU memory system captured by
  // the cost model, not of the arithmetic.  These numbers only sanity-check
  // that all kernels run the claimed computations.
  using ftt::tensor::Tensor4F;
  using ftt::tensor::Tensor4H;
  const std::size_t B = 2, H = 4, S = 512, D = 64;
  Tensor4H Q(B, H, S, D), K(B, H, S, D), V(B, H, S, D);
  ftt::tensor::fill_normal(Q, 1);
  ftt::tensor::fill_normal(K, 2);
  ftt::tensor::fill_normal(V, 3);
  Tensor4F O(B, H, S, D);

  const double t_dec = bench::time_best(
      [&] { fa::decoupled_ft_attention(Q, K, V, O); }, 2);
  fc::EftaOptions opt;
  opt.unified_verification = false;
  const double t_efta =
      bench::time_best([&] { fc::efta_attention(Q, K, V, O, opt); }, 2);
  const double t_flash =
      bench::time_best([&] { fa::flash_attention(Q, K, V, O); }, 2);

  bench::note("measured CPU sanity check (batch=2 heads=4 seq=512 dim=64):");
  std::printf("  flash %.1f ms | EFTA %.1f ms | decoupled-FT %.1f ms | "
              "measured speedup %.2fx\n",
              t_flash * 1e3, t_efta * 1e3, t_dec * 1e3, t_dec / t_efta);
}

}  // namespace

int main() {
  bench::header(
      "Figure 9 — End-to-end FT attention vs decoupled FT attention");
  bench::note("modeled A100 times from exact op counts; see "
              "docs/BENCHMARKS.md");
  run_config(16, 64);
  run_config(32, 128);
  measured_sanity();
  return 0;
}
