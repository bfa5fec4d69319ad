#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <random>
#include <stdexcept>

#include "tensor/random.hpp"

namespace servebench {

namespace fs = ftt::serve;

const std::vector<Workload>& workloads() {
  // name, kind, open, rate, clients, requests and passes, prefix rows,
  // prompt rows, budgets, solo checks, set-ups per pass
  static const std::vector<Workload> kAll = {
      {"chat_shared_prefix", Kind::kChat, true, 2.2, 0, 36, 1, 192, 16, 128,
       8, 48, 6, 3},
      {"long_doc_decode", Kind::kLongDoc, false, 0.0, 8, 16, 1, 3584, 16, 64,
       128, 128, 1, 2},
      {"faulty_mixed", Kind::kFaulty, false, 0.0, 8, 48, 1, 0, 17, 256, 8,
       40, 0, 3},
  };
  return kAll;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

ftt::transformer::ModelConfig bench_model() {
  return {"serve4x256", 4, 256, 4, 1024, /*causal=*/true};
}

fs::EngineOptions engine_options(const Workload& w) {
  fs::EngineOptions opt;  // default EftaOptions thresholds everywhere
  opt.protect_linear = true;
  opt.prefill_chunk_rows = 64;
  opt.kv_quant = false;   // fp16 tiles regardless of the environment
  opt.scheduler.max_batch_size = 8;
  if (w.kind == Kind::kFaulty) {
    opt.recovery.max_tick_retries = 2;
    opt.recovery.retry_on = fs::RetryTrigger::kAnyDetection;
  }
  return opt;
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) noexcept {
  std::uint64_t z = a ^ (b + 0x9e3779b97f4a7c15ull + (a << 6) + (a >> 2));
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

namespace {

/// n evenly spaced integers over [lo, hi], shuffled.
std::vector<std::size_t> stratified(std::size_t lo, std::size_t hi,
                                    std::size_t n, std::mt19937_64& rng) {
  std::vector<std::size_t> v(n);
  const double span = static_cast<double>(hi - lo + 1);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = lo + static_cast<std::size_t>(span * (static_cast<double>(i) + 0.5) /
                                         static_cast<double>(n));
  }
  std::shuffle(v.begin(), v.end(), rng);
  return v;
}

}  // namespace

std::vector<RequestSpec> make_fleet(const Workload& w, std::uint64_t seed) {
  std::mt19937_64 rng(mix(seed, static_cast<std::uint64_t>(w.kind)));
  const std::size_t n = w.per_pass;
  const auto rows = stratified(w.rows_lo, w.rows_hi, n, rng);
  const auto budgets = stratified(w.budget_lo, w.budget_hi, n, rng);
  std::vector<bool> shared(n, w.kind == Kind::kLongDoc);
  if (w.kind == Kind::kChat) {
    std::fill(shared.begin(), shared.begin() + static_cast<long>(n / 2), true);
    std::shuffle(shared.begin(), shared.end(), rng);
  }
  std::vector<double> due(n, 0.0);
  if (w.open_loop) {
    // Poisson arrivals conditioned on n arrivals in [0, n / rate): sorted
    // uniform order statistics.
    std::uniform_real_distribution<double> u(0.0, static_cast<double>(n) /
                                                       w.rate_rps);
    for (double& d : due) d = u(rng);
    std::sort(due.begin(), due.end());
  }
  std::vector<RequestSpec> fleet(n);
  for (std::size_t i = 0; i < n; ++i) {
    RequestSpec& r = fleet[i];
    r.shared = shared[i];
    r.prompt_rows = rows[i] + (r.shared ? w.prefix_rows : 0);
    r.budget = budgets[i];
    r.due_s = due[i];
    r.client = w.clients == 0 ? 0 : i % w.clients;
    r.seed = rng();
  }
  return fleet;
}

RequestSpec warmup_spec(const Workload& w, std::uint64_t seed) {
  RequestSpec r;
  r.seed = mix(seed, 0x3a93);
  if (w.kind == Kind::kLongDoc) {
    // One row past the document, so all of its tiles are shareable (the
    // last prompt row of a request is never shared).
    r.shared = true;
    r.prompt_rows = w.prefix_rows + 1;
    r.budget = 1;
  } else {
    r.prompt_rows = 65;
    r.budget = 2;
  }
  return r;
}

PromptMaker::PromptMaker(const Workload& w, std::uint64_t seed)
    : hidden_(bench_model().hidden) {
  if (w.prefix_rows > 0) {
    prefix_ = ftt::tensor::MatrixF(w.prefix_rows, hidden_);
    ftt::tensor::fill_normal(prefix_, mix(seed, 0x9f1));
  }
}

ftt::tensor::MatrixF PromptMaker::operator()(const RequestSpec& r) const {
  const std::size_t pre = r.shared ? prefix_.rows() : 0;
  if (r.prompt_rows < pre) {
    throw std::invalid_argument("PromptMaker: prompt shorter than prefix");
  }
  ftt::tensor::MatrixF own(r.prompt_rows - pre, hidden_);
  ftt::tensor::fill_normal(own, r.seed);
  if (pre == 0) return own;
  ftt::tensor::MatrixF p(r.prompt_rows, hidden_);
  std::copy(prefix_.data(), prefix_.data() + prefix_.size(), p.data());
  std::copy(own.data(), own.data() + own.size(), p.data() + prefix_.size());
  return p;
}

Campaign::Campaign(std::uint64_t seed) : seed_(mix(seed, 0xfa017)) {}

ftt::fault::FaultInjector* Campaign::for_tick(std::size_t tick) {
  using ftt::fault::Site;
  // Stratified: exactly one tick in each block of four, and each run of
  // four injections covers the four sites in a seeded order, so every seed
  // injects the same number of flips per site.
  const std::size_t block = tick / 4;
  const std::uint64_t h = mix(seed_, block);
  if (tick % 4 != h % 4) return nullptr;
  std::array<Site, 4> sites = {Site::kGemm1, Site::kExp, Site::kGemm2,
                               Site::kLinear};
  std::mt19937_64 order(mix(seed_, ~static_cast<std::uint64_t>(block / 4)));
  std::shuffle(sites.begin(), sites.end(), order);
  inj_ = ftt::fault::FaultInjector::single(sites[block % 4], (h >> 8) % 4096,
                                           30);
  return &inj_;
}

}  // namespace servebench
