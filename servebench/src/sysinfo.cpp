#include "sysinfo.hpp"

#include <sys/resource.h>

#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "numeric/gemm_simd.hpp"

#ifndef SERVEBENCH_BUILD_TYPE
#define SERVEBENCH_BUILD_TYPE "unknown"
#endif

namespace servebench {

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char brand[sizeof regs + 1] = {};
  std::memcpy(brand, regs, sizeof regs);
  std::string s(brand);
  const auto b = s.find_first_not_of(' ');
  const auto e = s.find_last_not_of(' ');
  return b == std::string::npos ? "unknown" : s.substr(b, e - b + 1);
#else
  return "unknown";
#endif
}

std::string simd_tier() {
  namespace n = ftt::numeric;
  if (n::simd_gemm_avx512_active()) return "avx512";
  if (n::simd_gemm_active()) {
    return n::simd_gemm_f16c_active() ? "avx2+f16c" : "avx2";
  }
  return "scalar";
}

std::string build_type() { return SERVEBENCH_BUILD_TYPE; }

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss: KiB
}

}  // namespace servebench
