#pragma once
// Load generation: one thread submits a fleet of requests to an
// engine and ticks it, open loop (requests due on a schedule) or closed
// loop (each client submits its next request when the previous completes).
//
// Latency is measured at step() boundaries, the only points where the
// engine's state changes:
//   * a request's clock starts at its due time (open loop) — so a stalled
//     step delays every request due during it, and that delay shows in
//     TTFT — or at its submit time (closed loop);
//   * TTFT ends at the end of the step after which it has left prefill;
//   * each step that grows its context past the longest it ever reached
//     emits one token (speculation is off), and the gap since the previous
//     emission is one inter-token latency sample;
//   * it completes when its context reaches prompt + budget.
//
// The loop is a template over the engine so tests can drive it with a fake
// engine; serve::DecodeEngine is the production instantiation.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "fault/fault.hpp"
#include "serve/scheduler.hpp"
#include "serve/step_stats.hpp"
#include "tensor/tensor.hpp"

namespace servebench {

using Clock = std::chrono::steady_clock;

/// One request of a fleet.  The prompt itself is built on submit by the
/// workload's PromptFn, so a fleet of long documents never sits in memory.
struct RequestSpec {
  std::size_t prompt_rows = 0;
  std::size_t budget = 0;     ///< generated tokens before it completes
  double due_s = 0.0;         ///< open loop: due time after pass start
  std::size_t client = 0;     ///< closed loop: owning client
  bool shared = false;        ///< carries the workload's shared prefix
  std::uint64_t seed = 0;     ///< content seed of its unshared rows
};

using PromptFn = std::function<ftt::tensor::MatrixF(const RequestSpec&)>;

/// One (request, q_len) entry of a tick's row stack, as observed through the
/// engine's public state: rows computed this tick and the context after.
struct TickEntry {
  std::size_t request = 0;  ///< fleet index
  std::size_t q_len = 0;    ///< rows computed (prefill chunk or 1)
  std::size_t context = 0;  ///< context length after the tick
  std::size_t shared_tiles = 0;  ///< prefix tiles attached so far
};

struct TickRecord {
  double start = 0.0;  ///< seconds since pass start
  double end = 0.0;
  std::size_t queued_before = 0;
  ftt::serve::StepStats stats;
  std::vector<TickEntry> entries;  ///< request-index order
  std::size_t faults_injected = 0;
};

struct RequestRecord {
  std::size_t id = 0;          ///< engine request id
  double start = 0.0;          ///< due (open) or submit (closed) time
  double submitted = 0.0;
  double admitted = -1.0;      ///< end of the step it left the queue in
  double first_token = -1.0;   ///< end of the step it left prefill in
  double done = -1.0;
  std::size_t target_context = 0;
  std::size_t max_context = 0;
  double last_emit = -1.0;
  std::vector<float> hidden;   ///< final hidden row, copied on completion
};

struct PassRecord {
  std::vector<RequestRecord> requests;  ///< fleet order
  std::vector<TickRecord> ticks;
  std::vector<double> itl_s;            ///< every inter-token gap
  double end = 0.0;                     ///< last completion, since start
};

struct LoopHooks {
  /// Injector for the tick about to run (tick ordinal), or null.
  std::function<ftt::fault::FaultInjector*(std::size_t)> injector;
  /// Called after every step with the tick's record (already appended).
  std::function<void(const TickRecord&)> on_tick;
};

template <class Engine>
class LoadLoop {
 public:
  LoadLoop(Engine& engine, const std::vector<RequestSpec>& fleet,
           PromptFn prompt, LoopHooks hooks = {})
      : engine_(engine), fleet_(fleet), prompt_(std::move(prompt)),
        hooks_(std::move(hooks)) {
    rec_.requests.resize(fleet.size());
  }

  /// Requests become due at fleet[i].due_s (ascending order required).
  PassRecord run_open() {
    t0_ = Clock::now();
    std::size_t next = 0;
    while (next < fleet_.size() || !outstanding_.empty()) {
      const double now = since_start();
      while (next < fleet_.size() && fleet_[next].due_s <= now) {
        submit(next, fleet_[next].due_s);
        ++next;
      }
      if (!outstanding_.empty()) {
        tick();
      } else if (next < fleet_.size()) {
        std::this_thread::sleep_until(
            t0_ + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(fleet_[next].due_s)));
      }
    }
    return finish();
  }

  /// `clients` closed-loop clients; client c owns the fleet entries with
  /// client == c and submits them in fleet order, one at a time.
  PassRecord run_closed(std::size_t clients) {
    t0_ = Clock::now();
    std::vector<std::vector<std::size_t>> queue(clients);
    for (std::size_t i = fleet_.size(); i-- > 0;) {
      queue.at(fleet_[i].client).push_back(i);  // reversed: pop_back order
    }
    auto submit_next = [&](std::size_t c) {
      if (queue[c].empty()) return;
      const std::size_t i = queue[c].back();
      queue[c].pop_back();
      submit(i, since_start());
    };
    for (std::size_t c = 0; c < clients; ++c) submit_next(c);
    while (!outstanding_.empty()) {
      for (const std::size_t i : tick()) submit_next(fleet_[i].client);
    }
    return finish();
  }

 private:
  double since_start() const {
    return std::chrono::duration<double>(Clock::now() - t0_).count();
  }

  void submit(std::size_t i, double start) {
    RequestRecord& r = rec_.requests[i];
    r.start = start;
    const ftt::tensor::MatrixF p = prompt_(fleet_[i]);
    r.submitted = since_start();
    r.id = engine_.submit(p, fleet_[i].budget);
    r.target_context = fleet_[i].prompt_rows + fleet_[i].budget;
    outstanding_.push_back(i);
  }

  /// One step; returns the fleet indices that completed in it.
  std::vector<std::size_t> tick() {
    TickRecord t;
    t.queued_before = engine_.queued();
    before_.clear();
    for (const std::size_t i : outstanding_) {
      const auto id = rec_.requests[i].id;
      before_.push_back({engine_.context_length(id),
                         engine_.shared_tile_count(id)});
    }
    ftt::fault::FaultInjector* inj =
        hooks_.injector ? hooks_.injector(ticks_) : nullptr;
    t.start = since_start();
    t.stats = engine_.step(inj);
    t.end = since_start();
    ++ticks_;
    if (inj != nullptr) t.faults_injected = inj->injected();

    std::vector<std::size_t> completed;
    std::vector<std::size_t> still;
    for (std::size_t k = 0; k < outstanding_.size(); ++k) {
      const std::size_t i = outstanding_[k];
      RequestRecord& r = rec_.requests[i];
      const auto state = engine_.state(r.id);
      const std::size_t ctx = engine_.context_length(r.id);
      const std::size_t shared = engine_.shared_tile_count(r.id);
      if (r.admitted < 0 && state != ftt::serve::RequestState::kQueued) {
        r.admitted = t.end;
      }
      const std::size_t attached =
          shared > before_[k].shared
              ? (shared - before_[k].shared) * kTileRows
              : 0;
      if (ctx > before_[k].context + attached) {
        t.entries.push_back(
            {i, ctx - before_[k].context - attached, ctx, shared});
      }
      if (state == ftt::serve::RequestState::kDecoding ||
          state == ftt::serve::RequestState::kRetired) {
        if (r.first_token < 0) {
          r.first_token = t.end;
          r.last_emit = t.end;
          r.max_context = ctx;
        } else if (ctx > r.max_context) {
          rec_.itl_s.push_back(t.end - r.last_emit);
          r.last_emit = t.end;
          r.max_context = ctx;
        }
      }
      if (ctx >= r.target_context || state == ftt::serve::RequestState::kRetired) {
        r.done = t.end;
        const auto h = engine_.hidden(r.id);
        r.hidden.assign(h.begin(), h.end());
        completed.push_back(i);
      } else {
        still.push_back(i);
      }
    }
    outstanding_.swap(still);
    rec_.ticks.push_back(std::move(t));
    if (hooks_.on_tick) hooks_.on_tick(rec_.ticks.back());
    return completed;
  }

  PassRecord finish() {
    rec_.end = since_start();
    return std::move(rec_);
  }

  static constexpr std::size_t kTileRows = 64;
  struct Before {
    std::size_t context;
    std::size_t shared;
  };

  Engine& engine_;
  const std::vector<RequestSpec>& fleet_;
  PromptFn prompt_;
  LoopHooks hooks_;
  PassRecord rec_;
  Clock::time_point t0_;
  std::vector<std::size_t> outstanding_;  ///< submitted, not complete
  std::vector<Before> before_;
  std::size_t ticks_ = 0;
};

}  // namespace servebench
