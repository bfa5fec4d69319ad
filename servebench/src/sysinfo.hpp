#pragma once
// What a run was measured on: CPU, SIMD tier, OpenMP team and build.  Runs
// on different SIMD tiers are not comparable, so every result records it.

#include <string>

namespace servebench {

/// CPU brand string from CPUID ("unknown" off x86).
[[nodiscard]] std::string cpu_model();
/// The GEMM dispatch tier the library selected at run time:
/// "avx512", "avx2+f16c", "avx2" or "scalar".
[[nodiscard]] std::string simd_tier();
/// CMAKE_BUILD_TYPE the benchmark was compiled under.
[[nodiscard]] std::string build_type();
/// Peak resident set of this process, in MB (1e6 bytes).
[[nodiscard]] double peak_rss_mb();

}  // namespace servebench
