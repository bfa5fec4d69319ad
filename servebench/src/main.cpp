// servebench: the serving benchmark binary.  One process runs one workload
// through serve::DecodeEngine, checks every output bitwise, and prints each
// metric with its unit and sample count; the last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}.
//
//   servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--out-dir <dir>] [--commit <sha>] [--src-digest <hex>]
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same passes
// in untraced/traced pairs, writes the spans of the last traced pass, replays
// its tick shapes through the layers and reports the per-layer metrics.
// Exit status: 0 on success, 1 when a clean-workload output check failed,
// 2 on a usage or run error (no result line is printed then).
// See servebench/README.md for the workloads and how to read the output.

#include <omp.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "loop.hpp"
#include "replay.hpp"
#include "stats.hpp"
#include "sysinfo.hpp"
#include "tensor/random.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

namespace fs = ftt::serve;
using namespace servebench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
  std::string commit = "unknown";
  std::string src_digest = "unknown";
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") {
      if (v != "0" && v != "1") throw std::invalid_argument("--trace is 0 or 1");
      a.trace = v == "1";
    }
    else if (k == "--out-dir") a.out_dir = v;
    else if (k == "--commit") a.commit = v;
    else if (k == "--src-digest") a.src_digest = v;
    else throw std::invalid_argument("unknown option " + k);
  }
  if (find_workload(a.workload) == nullptr) {
    throw std::invalid_argument("unknown workload '" + a.workload + "'");
  }
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

// Wall-clock ceiling for the passes of one run: run.py stops a run at
// 175 s, and the checks after the passes need some of that time.
constexpr double kPassWallLimit = 120.0;
// The metrics of the result line, in BENCHMARK.json order: the end-to-end
// set for untraced runs, the per-layer set for traced ones.  The end-to-end
// set holds only metrics that every workload reports in one run, that are
// never 0, and whose seed-to-seed spread stayed inside its bound; the rest
// are printed only (README.md lists which and why).
const std::vector<const char*> kResultE2E = {
    "setup_s", "output_tok_s", "tpot_p50_ms", "kv_mb_mean", "peak_rss_mb"};
const std::vector<const char*> kResultLayer = {
    "transformer.ffn_ms", "transformer.proj_ms", "transformer.layernorm_ms",
    "transformer.linear_frac", "transformer.linear_abft_frac",
    "transformer.linear_gflops", "transformer.weight_mb_streamed",
    "core.attention_ms", "core.attention_frac", "core.attention_gflops",
    "core.kv_mb_streamed", "tile_pool.prefix_hit_frac",
    "tile_pool.tiles_peak", "tile_pool.bytes_per_ctx_token",
    "tile_pool.evicted", "scheduler.queue_wait_p50_ms",
    "scheduler.queue_wait_mean_ms", "scheduler.queue_depth_mean",
    "scheduler.preempted", "recovery.retry_frac",
    "recovery.false_flag_ticks", "recovery.undetected_faults",
    "recovery.flagged", "recovery.silent_divergent",
    "recovery.faults_injected", "recovery.error_rate", "serve.step_ms_p50",
    "serve.step_ms_p90", "serve.ticks", "serve.rows_per_tick_mean",
    "serve.requests_per_tick_mean", "serve.unattributed_ms",
    "loadgen.lag_p50_ms", "loadgen.lag_max_ms", "trace.overhead_frac"};
// Ticks replayed per traced run (evenly spaced over the last traced pass).
constexpr std::size_t kReplayTicks = 160;

/// Request outcomes of a pass against its references.
struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;     ///< retired kFailed
  std::size_t flagged = 0;    ///< served kFlagged
  std::size_t divergent = 0;  ///< clean health, bits differ from the twin
  std::size_t errors = 0;     ///< any of the above (each request once)
  Outcome& operator+=(const Outcome& o) {
    attempted += o.attempted;
    failed += o.failed;
    flagged += o.flagged;
    divergent += o.divergent;
    errors += o.errors;
    return *this;
  }
};

/// One served pass, plus what the engine reported about it.
struct Pass {
  bool traced = false;
  std::vector<double> setup_s;
  PassRecord rec;
  std::vector<fs::RequestHealth> health;
  std::vector<PoolSample> pool;  ///< per tick, traced passes only
  std::size_t peak_kv_bytes = 0;
  double kv_bytes_sum = 0.0;     ///< summed over ticks, for the mean
  std::size_t undetected = 0;    ///< injected ticks with no detection
  std::size_t injected = 0;      ///< ticks that placed a flip
  Outcome outcome;
  std::unique_ptr<ftt::transformer::Model> model;
};

Pass run_pass(const Workload& w, std::uint64_t seed,
              const std::vector<RequestSpec>& fleet, bool traced,
              bool inject) {
  Pass p;
  p.traced = traced;
  const PromptMaker prompt(w, seed);
  const RequestSpec warm = warmup_spec(w, seed);
  std::unique_ptr<fs::DecodeEngine> engine;
  for (std::size_t s = 0; s < w.setups; ++s) {
    engine.reset();
    p.model.reset();
    const auto t0 = Clock::now();
    p.model = std::make_unique<ftt::transformer::Model>(bench_model(),
                                                        kModelSeed);
    engine = std::make_unique<fs::DecodeEngine>(*p.model, engine_options(w));
    (void)engine->submit(prompt(warm), warm.budget);
    (void)engine->run_until_idle();
    p.setup_s.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());
  }

  Campaign campaign(seed);
  LoopHooks hooks;
  if (inject) {
    hooks.injector = [&](std::size_t t) { return campaign.for_tick(t); };
  }
  hooks.on_tick = [&](const TickRecord& t) {
    const std::size_t bytes = engine->kv_bytes();
    p.peak_kv_bytes = std::max(p.peak_kv_bytes, bytes);
    p.kv_bytes_sum += static_cast<double>(bytes);
    if (traced) {
      p.pool.push_back({engine->pool().in_use(), bytes,
                        engine->pool().evictions()});
    }
    if (t.faults_injected > 0) {
      ++p.injected;
      if (t.stats.retried == 0) ++p.undetected;
    }
  };
  LoadLoop<fs::DecodeEngine> loop(*engine, fleet, std::cref(prompt), hooks);
  p.rec = w.open_loop ? loop.run_open() : loop.run_closed(w.clients);
  for (const RequestRecord& r : p.rec.requests) {
    p.health.push_back(engine->health(r.id));
  }
  return p;
}

bool same_bits(const std::vector<float>& a, std::span<const float> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

double sum_ms(const std::vector<TickRecord>& ticks) {
  double s = 0.0;
  for (const TickRecord& t : ticks) s += (t.end - t.start) * 1e3;
  return s;
}

Metric value(std::string name, std::string unit, double v, std::size_t n,
             std::string note = {}) {
  return Metric{std::move(name), std::move(unit), v, n, std::move(note)};
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void print_section(const char* title, const std::vector<Metric>& ms) {
  std::printf("%s\n", title);
  for (const Metric& m : ms) std::printf("%s\n", format_metric(m).c_str());
}

/// The highest percentile with at least kMinBeyond samples beyond it, for
/// TTFT and ITL pooled over the passes.
void print_tails(const std::vector<Pass>& passes) {
  std::vector<double> ttft, itl;
  for (const Pass& p : passes) {
    for (const RequestRecord& r : p.rec.requests) {
      ttft.push_back((r.first_token - r.start) * 1e3);
    }
    for (const double g : p.rec.itl_s) itl.push_back(g * 1e3);
  }
  std::printf("tails (highest percentile with >=%zu samples beyond it):",
              kMinBeyond);
  for (const auto& [name, v] : {std::pair{"ttft", &ttft}, {"itl", &itl}}) {
    if (const auto q = highest_tail(v->size())) {
      std::printf("  %s p%g %.3f ms (n=%zu)", name, *q * 100,
                  percentile(*v, *q), v->size());
    } else {
      std::printf("  %s none (n=%zu)", name, v->size());
    }
  }
  std::printf("\n");
}

/// Output checks of every pass; returns false on a clean-workload failure.
/// Fills each pass's Outcome.
bool check_passes(const Workload& w, std::uint64_t seed,
                  const std::vector<RequestSpec>& fleet,
                  std::vector<Pass>& passes, const Pass* twin) {
  bool ok = true;
  std::size_t budget_sum = 0, rows_sum = 0;
  for (const RequestSpec& r : fleet) {
    budget_sum += r.budget;
    rows_sum += r.prompt_rows;
  }
  for (std::size_t pi = 0; pi < passes.size(); ++pi) {
    Pass& p = passes[pi];
    std::size_t decoded = 0, prefill = 0, attached = 0;
    for (const TickRecord& t : p.rec.ticks) {
      decoded += t.stats.decoded;
      prefill += t.stats.prefill_rows;
      attached += t.stats.shared_tiles;
    }
    // Every budgeted token was generated, and every prompt row was either
    // computed or attached from the pool.  On the closed loops the attach
    // count is fixed too, so these totals repeat exactly run to run.
    if (decoded != budget_sum || prefill + 64 * attached != rows_sum) {
      std::printf("TOTALS MISMATCH pass %zu: decoded %zu of %zu, prompt rows "
                  "%zu + 64 x %zu of %zu\n",
                  pi, decoded, budget_sum, prefill, attached, rows_sum);
      ok = false;
    } else if (pi == 0) {
      std::printf("totals: %zu tokens decoded, %zu prompt rows computed, "
                  "%zu tiles attached\n",
                  decoded, prefill, attached);
    }
    Outcome& o = p.outcome;
    for (std::size_t i = 0; i < p.rec.requests.size(); ++i) {
      const auto& hidden = p.rec.requests[i].hidden;
      // Every pass serves the same fleet, and serving is deterministic.
      if (!same_bits(hidden, passes[0].rec.requests[i].hidden)) {
        std::printf("MISMATCH: request %zu differs between passes 0 and %zu\n",
                    i, pi);
        ok = false;
      }
      ++o.attempted;
      const auto h = p.health[i];
      const bool bad_health = h != fs::RequestHealth::kClean;
      if (h == fs::RequestHealth::kFailed) ++o.failed;
      if (h == fs::RequestHealth::kFlagged) ++o.flagged;
      const bool diverged =
          twin != nullptr && !same_bits(hidden, twin->rec.requests[i].hidden);
      if (diverged && !bad_health) ++o.divergent;
      if (bad_health || diverged) ++o.errors;
    }
    // On a clean workload a flagged or failed request is a wrong answer.
    if (twin == nullptr && o.errors > 0) ok = false;
  }
  if (twin != nullptr) return ok;

  // Clean workloads: a seeded sample re-decoded alone in a fresh engine,
  // outside the timed window, must match bit for bit.
  std::vector<std::size_t> order(fleet.size());
  std::iota(order.begin(), order.end(), 0);
  std::mt19937_64 rng(mix(seed, 0x5010));
  std::shuffle(order.begin(), order.end(), rng);
  const PromptMaker prompt(w, seed);
  std::size_t matched = 0;
  const std::size_t n = std::min(w.solo_checks, order.size());
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t i = order[k];
    fs::DecodeEngine solo(*passes.back().model, engine_options(w));
    const auto id = solo.submit(prompt(fleet[i]), fleet[i].budget);
    (void)solo.run_until_idle();
    if (same_bits(passes[0].rec.requests[i].hidden, solo.hidden(id))) {
      ++matched;
    } else {
      std::printf("MISMATCH: request %zu differs from its solo re-decode\n",
                  i);
      ok = false;
    }
  }
  std::printf("solo re-decode: %zu of %zu bitwise equal\n", matched, n);
  return ok;
}

std::vector<Metric> end_to_end(const std::vector<RequestSpec>& fleet,
                               const std::vector<Pass>& passes,
                               const Outcome& total) {
  std::vector<double> setup, tok_s, peak_kv, mean_kv;
  std::vector<std::vector<double>> ttft(passes.size()),
      tpot(passes.size()), itl(passes.size());
  std::size_t tokens = 0;
  for (std::size_t pi = 0; pi < passes.size(); ++pi) {
    const Pass& p = passes[pi];
    setup.insert(setup.end(), p.setup_s.begin(), p.setup_s.end());
    peak_kv.push_back(static_cast<double>(p.peak_kv_bytes) / 1e6);
    mean_kv.push_back(p.kv_bytes_sum / 1e6 /
                      static_cast<double>(p.rec.ticks.size()));
    std::size_t pass_tokens = 0;
    for (std::size_t i = 0; i < p.rec.requests.size(); ++i) {
      const RequestRecord& r = p.rec.requests[i];
      pass_tokens += fleet[i].budget;
      ttft[pi].push_back((r.first_token - r.start) * 1e3);
      tpot[pi].push_back((r.done - r.first_token) * 1e3 /
                         static_cast<double>(fleet[i].budget));
    }
    for (const double g : p.rec.itl_s) itl[pi].push_back(g * 1e3);
    tok_s.push_back(static_cast<double>(pass_tokens) / p.rec.end);
    tokens += pass_tokens;
  }
  const std::string of = "median of " + std::to_string(passes.size()) +
                         " passes";
  return {
      value("setup_s", "s", median(setup), setup.size(), "median of set-ups"),
      value("output_tok_s", "tok/s", median(tok_s), tokens, of),
      median_over_passes("ttft_p50_ms", "ms", ttft, 0.5),
      median_over_passes("ttft_p90_ms", "ms", ttft, 0.9),
      median_over_passes("tpot_p50_ms", "ms", tpot, 0.5),
      median_over_passes("itl_p50_ms", "ms", itl, 0.5),
      median_over_passes("itl_p90_ms", "ms", itl, 0.9),
      median_over_passes("itl_p99_ms", "ms", itl, 0.99),
      value("error_rate", "frac",
            ratio(static_cast<double>(total.errors),
                  static_cast<double>(total.attempted)),
            total.attempted),
      value("kv_mb_mean", "MB", median(mean_kv), passes.size(),
            of + ", mean over ticks"),
      value("peak_kv_mb", "MB", median(peak_kv), passes.size(), of),
      value("peak_rss_mb", "MB", peak_rss_mb(), 1),
  };
}

/// Per-layer metrics of the last traced pass: its recorded ticks and pool
/// samples, the replay of its tick shapes, and the pass pairs' tick time.
std::vector<Metric> per_layer(const Workload& w, std::uint64_t seed,
                              const std::vector<RequestSpec>& fleet,
                              const std::vector<Pass>& passes,
                              const Pass* twin) {
  const auto cfg = bench_model();
  const Pass* traced = nullptr;
  double plain_ms = 0.0, traced_ms = 0.0;
  for (std::size_t p = 0; p + 1 < passes.size(); p += 2) {
    plain_ms += sum_ms(passes[p].rec.ticks);
    traced_ms += sum_ms(passes[p + 1].rec.ticks);
    traced = &passes[p + 1];
  }
  if (traced == nullptr) throw std::logic_error("no traced pass");
  const PassRecord& rec = traced->rec;
  const ReplayResult rr = replay_pass(*traced->model, engine_options(w), rec,
                                      kReplayTicks, seed);
  const double n = static_cast<double>(std::max<std::size_t>(rr.ticks, 1));
  const double linear_ms = rr.proj_ms + rr.ffn_ms;

  // Streams computed from shapes over the whole traced pass.
  const double weight_bytes =
      2.0 * static_cast<double>(cfg.layers) *
      static_cast<double>(4 * cfg.hidden * cfg.hidden +
                          2 * cfg.hidden * cfg.ffn_inner);
  double kv_bytes = 0.0, rows = 0.0, reqs = 0.0, depth = 0.0;
  std::size_t busy = 0, retried_ticks = 0, evicted = 0, preempted = 0,
              attached = 0, flag_ticks = 0;
  std::vector<double> step_ms;
  for (const TickRecord& t : rec.ticks) {
    step_ms.push_back((t.end - t.start) * 1e3);
    depth += static_cast<double>(t.queued_before);
    evicted += t.stats.evicted;
    preempted += t.stats.preempted;
    attached += t.stats.shared_tiles;
    if (t.stats.retried > 0) ++retried_ticks;
    if (t.stats.attention.total_detected() + t.stats.linear.flagged > 0) {
      ++flag_ticks;
    }
    if (t.entries.empty()) continue;
    ++busy;
    reqs += static_cast<double>(t.entries.size());
    for (const TickEntry& e : t.entries) {
      rows += static_cast<double>(e.q_len);
      kv_bytes += 4.0 * static_cast<double>(e.context * cfg.head_dim() *
                                            cfg.heads * cfg.layers);
    }
  }
  // Shareable prompt tiles (the last prompt row is never shared).
  std::size_t shareable = 0;
  for (const RequestSpec& r : fleet) shareable += (r.prompt_rows - 1) / 64;
  std::size_t tiles_peak = 0;
  double bytes_per_token = 0.0;
  for (std::size_t i = 0; i < traced->pool.size(); ++i) {
    const PoolSample& s = traced->pool[i];
    tiles_peak = std::max(tiles_peak, s.tiles_in_use);
    if (s.kv_bytes == traced->peak_kv_bytes) {
      std::size_t ctx = 0;
      for (const TickEntry& e : rec.ticks[i].entries) ctx += e.context;
      bytes_per_token = ratio(static_cast<double>(s.kv_bytes),
                              static_cast<double>(ctx));
    }
  }
  // Detections on an injection-free run: the twin's retried ticks on
  // faulty_mixed; elsewhere (retry off) ticks served with a detection.
  std::size_t false_flags = flag_ticks;
  if (twin != nullptr) {
    false_flags = 0;
    for (const TickRecord& t : twin->rec.ticks) {
      if (t.stats.retried > 0) ++false_flags;
    }
  }
  std::vector<double> qwait, lag;
  for (const RequestRecord& r : rec.requests) {
    qwait.push_back((r.admitted - r.start) * 1e3);
    lag.push_back((r.submitted - r.start) * 1e3);
  }
  const Outcome& o = traced->outcome;
  const double ticks = static_cast<double>(rec.ticks.size());
  const double bz = static_cast<double>(std::max<std::size_t>(busy, 1));
  const std::size_t nt = rec.ticks.size();
  auto count = [](std::size_t v) { return static_cast<double>(v); };
  return {
      value("transformer.ffn_ms", "ms", rr.ffn_ms / n, rr.ticks, "per tick"),
      value("transformer.proj_ms", "ms", rr.proj_ms / n, rr.ticks, "per tick"),
      value("transformer.layernorm_ms", "ms", rr.layernorm_ms / n, rr.ticks,
            "per tick"),
      value("transformer.linear_frac", "frac", ratio(linear_ms, rr.tick_ms),
            rr.ticks),
      value("transformer.linear_abft_frac", "frac",
            ratio(linear_ms - rr.proj_plain_ms - rr.ffn_plain_ms, linear_ms),
            rr.ticks),
      value("transformer.linear_gflops", "GFLOP/s",
            ratio(rr.linear_flop, linear_ms * 1e6), rr.ticks, "computed"),
      value("transformer.weight_mb_streamed", "MB", weight_bytes * bz / 1e6,
            busy, "computed, traced pass"),
      value("core.attention_ms", "ms", rr.attention_ms / n, rr.ticks,
            "per tick"),
      value("core.attention_frac", "frac", ratio(rr.attention_ms, rr.tick_ms),
            rr.ticks),
      value("core.attention_gflops", "GFLOP/s",
            ratio(rr.attention_flop, rr.attention_ms * 1e6), rr.ticks,
            "computed"),
      value("core.kv_mb_streamed", "MB", kv_bytes / 1e6, busy,
            "computed, traced pass"),
      value("tile_pool.prefix_hit_frac", "frac",
            ratio(count(attached), count(shareable)), shareable),
      value("tile_pool.tiles_peak", "tiles", count(tiles_peak), nt),
      value("tile_pool.bytes_per_ctx_token", "B", bytes_per_token, 1,
            "at peak KV"),
      value("tile_pool.evicted", "tiles", count(evicted), nt),
      percentile_metric("scheduler.queue_wait_p50_ms", "ms", qwait, 0.5),
      percentile_metric("scheduler.queue_wait_p90_ms", "ms", qwait, 0.9),
      value("scheduler.queue_wait_mean_ms", "ms", mean(qwait), qwait.size()),
      value("scheduler.queue_depth_mean", "requests", depth / ticks, nt),
      value("scheduler.preempted", "count", count(preempted), nt),
      value("recovery.retry_frac", "frac", count(retried_ticks) / ticks, nt),
      value("recovery.false_flag_ticks", "count", count(false_flags), nt),
      value("recovery.undetected_faults", "count", count(traced->undetected),
            traced->injected),
      value("recovery.flagged", "count", count(o.flagged), o.attempted),
      value("recovery.silent_divergent", "count", count(o.divergent),
            o.attempted),
      value("recovery.faults_injected", "count", count(traced->injected), nt),
      value("recovery.error_rate", "frac",
            ratio(count(o.errors), count(o.attempted)), o.attempted),
      percentile_metric("serve.step_ms_p50", "ms", step_ms, 0.5),
      percentile_metric("serve.step_ms_p90", "ms", step_ms, 0.9),
      percentile_metric("serve.step_ms_p99", "ms", step_ms, 0.99),
      value("serve.ticks", "count", ticks, 1, "traced pass"),
      value("serve.rows_per_tick_mean", "rows", rows / bz, busy),
      value("serve.requests_per_tick_mean", "requests", reqs / bz, busy),
      value("serve.unattributed_ms", "ms",
            (rr.tick_ms - linear_ms - rr.layernorm_ms - rr.attention_ms) / n,
            rr.ticks, "per tick"),
      percentile_metric("loadgen.lag_p50_ms", "ms", lag, 0.5),
      percentile_metric("loadgen.lag_p99_ms", "ms", lag, 0.99),
      value("loadgen.lag_max_ms", "ms",
            *std::max_element(lag.begin(), lag.end()), lag.size()),
      value("trace.overhead_frac", "frac", traced_ms / plain_ms - 1.0,
            passes.size() / 2, "traced vs untraced pass pairs"),
  };
}

int run(const Args& a) {
  const Workload& w = *find_workload(a.workload);
  omp_set_num_threads(static_cast<int>(kOmpThreads));
  const auto cfg = bench_model();

  char meta[1024];
  std::snprintf(
      meta, sizeof meta,
      "{\"workload\":%s,\"seed\":%llu,\"loop\":%s,\"rate_rps\":%g,"
      "\"clients\":%zu,\"omp_threads\":%d,\"cpu\":%s,\"simd\":%s,"
      "\"build\":%s,\"commit\":%s,\"src_sha256\":%s,\"model\":%s}",
      json_str(std::string(w.name)).c_str(),
      static_cast<unsigned long long>(a.seed),
      w.open_loop ? "\"open\"" : "\"closed\"", w.rate_rps, w.clients,
      omp_get_max_threads(), json_str(cpu_model()).c_str(),
      json_str(simd_tier()).c_str(), json_str(build_type()).c_str(),
      json_str(a.commit).c_str(), json_str(a.src_digest).c_str(),
      json_str(cfg.name + " layers=4 hidden=256 heads=4 ffn=1024").c_str());
  std::printf("servebench %s (trace %d, %g s)\nmeta %s\n",
              std::string(w.name).c_str(), a.trace ? 1 : 0, a.seconds, meta);

  // Every pass serves the run's one fleet, so per-pass figures differ only
  // by measurement noise and their median drops a slow pass.  Traced runs
  // alternate untraced and traced passes; the pairs' tick times give the
  // tracing overhead.
  const bool faulty = w.kind == Kind::kFaulty;
  const std::vector<RequestSpec> fleet = make_fleet(w, a.seed);
  {
    // Untimed process warm-up (thread team, allocator, code pages), so the
    // first timed set-up is not also the process's cold start.
    const ftt::transformer::Model model(bench_model(), kModelSeed);
    fs::DecodeEngine engine(model, engine_options(w));
    ftt::tensor::MatrixF prompt(65, cfg.hidden);
    ftt::tensor::fill_normal(prompt, mix(a.seed, 0x3a94));
    (void)engine.submit(prompt, 2);
    (void)engine.run_until_idle();
  }
  std::vector<Pass> passes;
  double timed_s = 0.0;
  const auto wall0 = Clock::now();
  for (std::size_t p = 0;; ++p) {
    passes.push_back(run_pass(w, a.seed, fleet, a.trace && p % 2 == 1,
                              faulty));
    timed_s += passes.back().rec.end;
    const double wall =
        std::chrono::duration<double>(Clock::now() - wall0).count();
    const bool paired = !a.trace || p % 2 == 1;
    const bool enough = passes.size() >= w.passes && timed_s >= a.seconds;
    if (paired && (enough || wall > kPassWallLimit)) break;
  }
  // faulty_mixed: the same fleet without injection, same retry policy.
  std::optional<Pass> twin;
  if (faulty) twin = run_pass(w, a.seed, fleet, false, false);

  const bool correct =
      check_passes(w, a.seed, fleet, passes, twin ? &*twin : nullptr);
  Outcome total;
  for (const Pass& p : passes) total += p.outcome;
  const std::vector<Metric> e2e = end_to_end(fleet, passes, total);
  std::printf("\npasses %zu, timed %.3f s, requests %zu\n", passes.size(),
              timed_s, total.attempted);
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const Pass& p = passes[i];
    std::printf("  pass %zu%s: set-up %.3f s, timed %.3f s, %zu ticks, "
                "%.1f ms busy\n",
                i, p.traced ? " (traced)" : "", p.setup_s.back(), p.rec.end,
                p.rec.ticks.size(), sum_ms(p.rec.ticks));
  }
  print_section("end-to-end", e2e);
  print_tails(passes);
  std::printf("correctness: %s", correct ? "ok" : "FAILED");
  if (faulty) {
    auto retried = [](const Pass& p) {
      return std::count_if(p.rec.ticks.begin(), p.rec.ticks.end(),
                           [](const TickRecord& t) { return t.stats.retried; });
    };
    std::printf("; %zu flagged, %zu silently divergent of %zu requests; "
                "retried ticks %td of %zu (twin %td of %zu)",
                total.flagged, total.divergent, total.attempted,
                retried(passes.back()), passes.back().rec.ticks.size(),
                retried(*twin), twin->rec.ticks.size());
  }
  std::printf("\n");

  std::vector<Metric> layers;
  if (a.trace) {
    layers = per_layer(w, a.seed, fleet, passes, twin ? &*twin : nullptr);
    print_section("per-layer (replayed at the traced pass's tick shapes)",
                  layers);
    std::filesystem::create_directories(a.out_dir);
    const std::string path = a.out_dir + "/" + std::string(w.name) + "-seed" +
                             std::to_string(a.seed) + ".trace.json";
    const Pass& traced = passes.back();
    write_trace(path, traced.rec, traced.pool, meta, layers);
    std::printf("spans: %s\n", path.c_str());
  }

  // The result line carries exactly the metrics BENCHMARK.json names; a
  // run that could not measure one of them has no result.
  std::vector<Metric> reported;
  const auto& all = a.trace ? layers : e2e;
  for (const char* name : a.trace ? kResultLayer : kResultE2E) {
    const auto it = std::find_if(all.begin(), all.end(),
                                 [&](const Metric& m) { return m.name == name; });
    if (it == all.end() || !it->value) {
      throw std::runtime_error(std::string("metric ") + name +
                               " lacks samples in this run");
    }
    reported.push_back(*it);
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", total.attempted, total.failed,
              metrics_json(reported).c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "servebench: %s\n", e.what());
    return 2;
  }
}
