#pragma once
// Shared helpers for the figure/table reproduction harnesses.
//
// Each bench binary regenerates one table or figure of the paper.  Timing
// numbers at paper scale come from the calibrated A100 cost model driven by
// exact operation counts (see docs/BENCHMARKS.md, "Paper figures: the
// cost-model substitution"); accuracy/coverage numbers are
// *measured* by running the real kernels with fault injection.  Where
// affordable, benches also report measured CPU wall-clock ratios at reduced
// scale as a sanity check on the model's orderings.

#include <chrono>
#include <cstdio>
#include <string>

#include "attention/attention.hpp"
#include "sim/cost.hpp"
#include "tensor/random.hpp"

namespace bench {

inline ftt::sim::MachineModel machine() { return {}; }

/// Wall-clock of one callable invocation, in seconds.
template <typename F>
double time_once(F&& f) {
  const auto t0 = std::chrono::steady_clock::now();
  f();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Best of `reps` invocations.
template <typename F>
double time_best(F&& f, int reps = 3) {
  double best = 1e30;
  for (int i = 0; i < reps; ++i) best = std::min(best, time_once(f));
  return best;
}

inline void header(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

inline void note(const std::string& text) { std::printf("  %s\n", text.c_str()); }

inline const std::size_t kPaperSeqs[] = {512, 1024, 2048, 4096, 8192, 16384};

inline std::string seq_label(std::size_t seq) {
  if (seq >= 1024) return std::to_string(seq / 1024) + "k";
  return std::to_string(seq);
}

}  // namespace bench
