#pragma once
// The benchmark's model, engine settings and seeded workloads.
//
// Every workload serves one causal model (4 layers, hidden 256, 4 heads at
// the paper's head_dim 64, FFN 1024) through serve::DecodeEngine with
// protected linears, batch cap 8 and fp16 KV tiles.  A run repeats *passes*:
// each pass builds a fresh model and engine (the set-up being timed), warms
// up, then serves one fleet drawn from (seed, pass).  Fleet sizes, prompt
// lengths and budgets are stratified — an evenly spaced grid over each
// range, shuffled by the seed — so every seed serves the same token and row
// totals while the seed still decides which request gets which length,
// which requests share a prefix, and when each one arrives.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fault/fault.hpp"
#include "loop.hpp"
#include "serve/engine.hpp"
#include "tensor/tensor.hpp"
#include "transformer/model.hpp"

namespace servebench {

enum class Kind { kChat, kLongDoc, kFaulty };

struct Workload {
  std::string_view name;
  Kind kind;
  bool open_loop;
  double rate_rps;            ///< open loop: mean arrival rate
  std::size_t clients;        ///< closed loop: concurrent clients
  std::size_t per_pass;       ///< requests per pass
  std::size_t passes;         ///< minimum passes per run
  std::size_t prefix_rows;    ///< shared prefix (0 = none)
  std::size_t rows_lo, rows_hi;      ///< unshared prompt rows
  std::size_t budget_lo, budget_hi;  ///< generated tokens
  std::size_t solo_checks;    ///< requests re-decoded alone per run
  /// Set-ups timed per pass (the last one serves the pass).  Two on
  /// long_doc_decode, whose set-up prefills the whole document.
  std::size_t setups;
};

[[nodiscard]] const std::vector<Workload>& workloads();
[[nodiscard]] const Workload* find_workload(std::string_view name);

[[nodiscard]] ftt::transformer::ModelConfig bench_model();
inline constexpr std::uint64_t kModelSeed = 0x5eed;
inline constexpr std::size_t kOmpThreads = 4;

/// Engine settings for a workload (retry on for faulty_mixed only).
[[nodiscard]] ftt::serve::EngineOptions engine_options(const Workload& w);

/// The requests of a run seeded with `seed`, in due order (open loop) or
/// client-interleaved order (closed loop).  Every pass serves this fleet.
[[nodiscard]] std::vector<RequestSpec> make_fleet(const Workload& w,
                                                  std::uint64_t seed);

/// Untimed request run before each pass: the document itself on
/// long_doc_decode (so it is sealed and published), an unrelated short
/// prompt elsewhere.
[[nodiscard]] RequestSpec warmup_spec(const Workload& w, std::uint64_t seed);

/// Builds prompts: the shared prefix (fixed per seed) followed by the
/// request's own rows.
class PromptMaker {
 public:
  PromptMaker(const Workload& w, std::uint64_t seed);
  [[nodiscard]] ftt::tensor::MatrixF operator()(const RequestSpec& r) const;

 private:
  std::size_t hidden_;
  ftt::tensor::MatrixF prefix_;
};

/// The faulty_mixed campaign: on one tick in four, one bit-30 flip at a
/// seeded site (kGemm1, kExp, kGemm2 or kLinear) and call ordinal below
/// 4096.  The draws depend only on the seed and the tick ordinal, so a pass
/// replays exactly.
class Campaign {
 public:
  explicit Campaign(std::uint64_t seed);
  ftt::fault::FaultInjector* for_tick(std::size_t tick);

 private:
  std::uint64_t seed_;
  ftt::fault::FaultInjector inj_;
};

/// splitmix64 finalizer: derives independent stream seeds.
[[nodiscard]] std::uint64_t mix(std::uint64_t a, std::uint64_t b) noexcept;

}  // namespace servebench
