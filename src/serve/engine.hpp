#pragma once
// Continuous-batching fault-tolerant serving engine over a paged KV pool.
//
// The engine drives autoregressive generation for many concurrent sequences
// through a transformer::Model without ever recomputing a live prefix.
// KV storage is one serve::TilePool shared by every request: per-request
// block tables map context tiles to pool tiles, sealed prompt tiles are
// prefix-shared between requests (a hash chain over the prompt's hidden
// rows keys the pool registry), and unreferenced tiles are LRU-evicted.
// submit() only enqueues: all compute happens in step(), one scheduler tick
// that
//
//   (a) retires requests that reached their generation budget or context
//       cap, releasing their tiles (published prompt tiles stay cached for
//       future sharers until evicted);
//   (b) admits queued requests, high-priority class first (serve::Scheduler,
//       strict FCFS within a class), attaching any prefix tiles already in
//       the pool so a shared prompt is computed once, ever;
//   (c) memory phase: on-demand paged allocation of the tiles this tick's
//       rows need, best-ranked request first.  When the pool is exhausted,
//       the worst-ranked admitted request (lowest priority class, then
//       youngest) is preempted: tiles released, request re-queued at the
//       front of its class, to recompute from its prompt on readmission.
//       A request that is itself the worst-ranked self-preempts, so the
//       best-ranked request always makes progress — no livelock;
//   (d) runs at most one causal prefill chunk (up to 64 prompt rows) per
//       prefilling request;
//   (e) advances every decoding request by a query block of 1 + k rows —
//       its next input row plus up to EngineOptions.spec_tokens drafted
//       candidates from the request's TokenProposer — through one
//       efta_decode_batch call shared with the prefill chunks;
//   (f) verifies each draft block greedily: drafted row i is committed iff
//       it bit-matches the model's own output at position i-1 (and every
//       earlier draft matched).  The longest matching prefix commits — one
//       block pass can retire up to k+1 tokens — and the KV rows of
//       rejected drafts are rolled back (open-tile truncation; tiles
//       filled mid-speculation stay unsealed until the commit, so sealed
//       tiles are never speculative and prefix sharing / preemption-replay
//       invariants survive untouched).
//
// Speculation cannot change results, only speed: a draft is committed only
// when its row already equals, bit for bit, what the q_len = 1 serial path
// would have produced (the block kernel is row-for-row bit-identical to
// serial decode, and acceptance is bitwise equality against the model's
// output).  A useless proposer just wastes the drafted rows' compute;
// budgets still land exactly (drafting is clamped to the remaining token
// budget), so a retired request's stream is the serial stream regardless.
//
// Prefill chunks and decode blocks share one row-stack per tick: layer norms,
// the QKV/output projections and the feed-forward run once per layer over
// all rows of all requests (strided-ABFT-protected when protect_linear is
// set), then attention splits into per-(request, head) protected work items,
// OpenMP-parallel, with per-slice FtReport aggregation rolled up into both
// per-request lifetime reports and the tick's stats.
//
// Every per-row operation in the stack is row-deterministic, and the chunked
// prefill kernel is bit-identical per row to the token-by-token decode path,
// so a batched tick is bit-identical to running each request in its own
// engine — regardless of what else shares the batch, regardless of the
// chunk size, and regardless of whether a prefix tile was computed locally
// or attached from the pool (a shared tile holds exactly the bits a private
// prefill would have produced, sealed checksum encodings included).
// Preemption preserves the same guarantee by recomputation: generation is a
// deterministic function of the prompt, so a preempted-then-readmitted
// request replays its exact token trajectory.  tests/test_serve.cpp and
// tests/test_tile_pool.cpp pin these properties down.
//
// Token embedding/unembedding are outside the paper's protected region
// (memory, assumed ECC-protected) and are not modeled; "generation" feeds
// each token's final-layernormed hidden state back as the next token's
// input, which exercises exactly the per-token compute the paper profiles.

#include <cstddef>
#include <deque>
#include <memory>
#include <span>
#include <vector>

#include "attention/ft_report.hpp"
#include "core/decode.hpp"
#include "serve/proposer.hpp"
#include "serve/recovery.hpp"
#include "serve/scheduler.hpp"
#include "serve/shard.hpp"
#include "serve/step_stats.hpp"
#include "serve/tile_pool.hpp"
#include "transformer/model.hpp"

namespace ftt::serve {

struct EngineOptions {
  /// Attention protection knobs the decode/prefill kernels read: stride,
  /// abft_rel_threshold, exp_log_threshold, snvr_slack.  Both kernels are
  /// fixed to 64-row strided-ABFT tiles with SNVR softmax protection, so
  /// the constructor rejects other gemm/softmax/block settings; causal and
  /// unified_verification are implied by the cache-backed paths and
  /// ignored.
  core::EftaOptions efta;
  bool protect_linear = true;  ///< strided ABFT on projections + FFN
  /// Context cap: submit() rejects prompts beyond it, and a request
  /// *reaching* it during generation is retired automatically (caches
  /// released, hidden state and reports stay readable) so the rest of the
  /// batch keeps stepping.
  std::size_t max_context = 65536;
  /// Record every fed input row so fed_inputs() can replay the request
  /// through a from-scratch forward (tests / offline verification).  Costs
  /// hidden * 4 bytes per token while the request lives, which is why the
  /// serving default is off.  Preemption clears the recording (the rows are
  /// re-recorded on recompute).
  bool record_inputs = false;
  /// Prompt rows per prefill chunk per tick, 1..64.  64 — the checksum tile
  /// — is the production setting: K/V tiles are loaded and encoded once per
  /// chunk instead of once per token.  1 reproduces serial token-by-token
  /// prefill; the bit-identity tests compare the two.
  std::size_t prefill_chunk_rows = 64;
  /// Generation budget for submit() calls that don't pass one explicitly.
  /// 0 = unbudgeted: the request decodes until finish() or max_context.
  std::size_t default_max_new_tokens = 0;
  /// Register sealed fully-prompt tiles in the pool and attach matching
  /// prefixes at admission.  Sharing never changes results (sealed tiles
  /// are bit-identical to what a private prefill would compute); the knob
  /// exists for A/B benchmarking the capacity win.
  bool share_prefix = true;
  /// Sealed-tile image policy (TilePoolOptions::images; core::ImagePolicy):
  ///   * kF16T (default) — a pre-transposed fp16 image per sealed tile:
  ///     clean decode ticks stream Half operands straight through the
  ///     fp16-operand fused microkernels (widened 8 lanes at a time in
  ///     register), at ~0.5x extra KV tile memory (~1.5x total with the
  ///     fp16 slab).
  ///   * kNone — no image; decode widens/packs per tile per call, which
  ///     maximizes context capacity.
  /// Both decode bit-identically — widening is exact and the accumulation
  /// order is pinned.  Requires the encoding memo
  /// (auto-forced to kNone without it).
  core::ImagePolicy images = core::ImagePolicy::kF16T;
  /// Default sealed-tile storage format for submit(): true stores every
  /// sealed KV tile int8-quantized (core::TileFmt::kI8 — per-tile
  /// power-of-two scales, exact integer checksums at rest, fp16-derived
  /// decode memo; see docs/QUANTIZATION.md), roughly 1.5x less sealed-tile
  /// memory than the default fp16 + f16t-image configuration.  Per-request
  /// override: submit_with_format().  Both formats share the one pool —
  /// sealed-tile images apply only to fp16 tiles — and fp16 requests stay
  /// bit-identical to a pure-fp16 run.  Requires the encoding memo
  /// (constructor throws without it).  Defaults to the process-wide
  /// default_tile_format() — kF16 unless the FTT_KV_QUANT environment
  /// toggle flips the whole serve stack to int8 (the CI matrix leg).
  bool kv_quant = default_tile_format() == core::TileFmt::kI8;
  /// Speculative decode: maximum drafted tokens scored per decoding
  /// request per tick (0 = off, the serial q_len = 1 path).  Each tick
  /// feeds a block of 1 + spec_tokens rows through the verified kernel and
  /// commits the longest draft prefix that bit-matches the model's own
  /// outputs, so acceptance can only speed a stream up, never change it.
  /// Bounded by 63 (block + committed row must fit the 64-row kernel
  /// block).  Drafting is clamped to the remaining generation budget.
  std::size_t spec_tokens = 0;
  /// Draft source for speculative decode.  Null with spec_tokens > 0
  /// constructs the default serve::PromptLookupProposer (no-second-model
  /// n-gram lookup over the request's own committed row history).
  std::shared_ptr<TokenProposer> proposer;
  /// Admission policy (batch-size cap, priority classes, optional
  /// shortest-job-first within a class) and the pool capacity
  /// (scheduler.max_kv_tiles, in context tiles; 0 = unbounded).
  SchedulerOptions scheduler;
  /// Shard workers per tick (1 = the solo tick body).  With shards > 1 the
  /// tick's compute runs on a barrier-stepped ShardedEngine: attention is
  /// partitioned by head ranges, the linears column-parallel by 64-tile
  /// column ranges, row phases by row ranges — all bit-identical to solo
  /// for any shard count (see serve/shard.hpp).  Requires head_dim to be a
  /// multiple of 64.  A tick given a FaultInjector always runs the solo
  /// body regardless (injectors are call-order-dependent state; parallel
  /// slicing would move the faults), so injected runs stay bit-comparable
  /// with solo engines.
  std::size_t shards = 1;
  /// Output-projection combine for shards > 1.  kColumnParallel (default)
  /// is bit-identical to solo; kRingReduce exercises the row-parallel
  /// partial-sum path through the DeterministicCombiner — deterministic
  /// for a fixed shard count, not solo-bitwise.
  CombineMode combine = CombineMode::kColumnParallel;
  /// Serving-layer fault recovery (serve/recovery.hpp): tick retry, shard
  /// quarantine and KV scrubbing knobs.  All rungs default off — a
  /// default-constructed policy reproduces the pre-recovery engine bit for
  /// bit.  The replica-level rung (drain) lives in RouterOptions.
  RecoveryPolicy recovery;
};

class DecodeEngine;

namespace testing {
/// Mutable pool access for the scrubber memory-corruption tests (the
/// serve::testing flip_*_bit hooks need a writable TilePool).  Test-only
/// observability; never a serving API.
TilePool& engine_pool(DecodeEngine& e) noexcept;
}  // namespace testing

class DecodeEngine {
 public:
  using RequestId = std::size_t;

  /// Per-tick counters; see serve/step_stats.hpp (extracted so shard
  /// combiners and the replica Router merge the same type).
  using StepStats = serve::StepStats;

  explicit DecodeEngine(const transformer::Model& model,
                        EngineOptions opt = {});

  /// Enqueue a sequence: `prompt_hidden` is seq x hidden, any seq >= 1.
  /// No compute happens here — the scheduler admits the request on a later
  /// step() and its prompt streams in as causal prefill chunks (minus any
  /// prefix tiles already cached in the pool).  When no path can replay the
  /// prompt (an unbounded pool with the scrubber, speculation and
  /// record_inputs off), the prefix tiles cached right now are pinned here
  /// and only the prompt rows after them are copied; the pins attach at
  /// admission, or are released if the request retires while queued.
  /// `max_new_tokens` caps
  /// generation (0 = EngineOptions default); once the cap or max_context is
  /// reached the request retires on its own.  `priority` picks the
  /// scheduling class: high overtakes normal overtakes low, and preemption
  /// victims are drawn lowest class first.  Throws std::invalid_argument
  /// when the request's context ceiling could never fit the pool.
  RequestId submit(const tensor::MatrixF& prompt_hidden,
                   std::size_t max_new_tokens = 0,
                   Priority priority = Priority::kNormal);

  /// submit() with an explicit sealed-tile format for this request,
  /// overriding EngineOptions::kv_quant.  Prefix chains are keyed per
  /// format (an i8 request can only ever attach i8 tiles), so mixing
  /// formats in one engine is safe — and an fp16 request's stream is
  /// bit-identical to what a pure-fp16 engine would produce.  Throws
  /// std::logic_error for kI8 when the pool's encoding memo is disabled.
  RequestId submit_with_format(const tensor::MatrixF& prompt_hidden,
                               core::TileFmt kv_fmt,
                               std::size_t max_new_tokens = 0,
                               Priority priority = Priority::kNormal);

  /// One scheduler tick: retire, admit (+ prefix attach), draft,
  /// allocate/preempt, prefill one chunk per prefilling request, advance
  /// every decoding request by a verified query block of 1 + accepted
  /// drafts tokens.  A tick with nothing to run returns zeroed stats
  /// without touching OpenMP — an idle engine is free to poll.
  StepStats step(fault::FaultInjector* inj = nullptr);

  /// Run `steps` ticks; merged stats.
  StepStats drain(std::size_t steps, fault::FaultInjector* inj = nullptr);

  /// Tick until no request is queued or admitted (requires every live
  /// request to have a generation budget), or until `max_ticks` elapse.
  StepStats run_until_idle(fault::FaultInjector* inj = nullptr,
                           std::size_t max_ticks = SIZE_MAX);

  /// Retire a request in any live state: release its tiles, pending prompt
  /// and recorded history, and free its scheduler slot.  Its last hidden
  /// state, lifetime report and token count stay readable.
  void finish(RequestId id);

  /// Merged stats over everything this engine ever ran; `active` counts
  /// computed token rows (prefill + decode).  Equal to the sum of every
  /// step() return — all compute happens inside ticks.
  [[nodiscard]] const StepStats& lifetime() const noexcept {
    return lifetime_;
  }

  /// Shard workers the tick compute runs across (EngineOptions.shards).
  [[nodiscard]] std::size_t shards() const noexcept {
    return sharded_ ? sharded_->shards() : 1;
  }
  /// Lifetime attention fault-tolerance reports attributed per shard by
  /// head ownership — size shards(), merged over every tick this engine
  /// ever ran (including injected ticks, which run the solo body but are
  /// attributed through the same head -> shard map).  A fault striking one
  /// shard's heads lands in exactly that shard's report, so "a whole shard
  /// went bad" reads directly off this vector.
  [[nodiscard]] std::span<const attention::FtReport> shard_reports()
      const noexcept {
    return shard_attention_;
  }
  /// True while physical shard `s` is quarantined (its heads remapped over
  /// the healthy workers); throws std::out_of_range for s >= shards().
  [[nodiscard]] bool shard_quarantined(std::size_t s) const;
  /// Shard workers currently serving (shards() minus quarantined).
  [[nodiscard]] std::size_t healthy_shards() const noexcept;

  [[nodiscard]] RequestState state(RequestId id) const;
  /// Requests admitted and not yet retired (prefilling + decoding).
  [[nodiscard]] std::size_t active() const noexcept;
  /// Requests waiting for admission (first-time or re-queued by
  /// preemption).
  [[nodiscard]] std::size_t queued() const noexcept {
    return scheduler_.queued();
  }
  [[nodiscard]] bool is_active(RequestId id) const;
  /// Tokens in the request's context (shared + prefilled prompt rows +
  /// generated).  Reset by preemption; recovered by recomputation.
  [[nodiscard]] std::size_t context_length(RequestId id) const;
  /// Final-layernormed hidden state of the request's latest token (empty
  /// while the request is still queued).
  [[nodiscard]] std::span<const float> hidden(RequestId id) const;
  /// Lifetime attention fault-tolerance report of one request.  Throws
  /// std::out_of_range for an id this engine never issued; find_report is
  /// the non-throwing probe.
  [[nodiscard]] const attention::FtReport& report(RequestId id) const;
  /// report() without the throw: nullptr for an unknown id.
  [[nodiscard]] const attention::FtReport* find_report(
      RequestId id) const noexcept;
  /// Fault-recovery status of a request (kClean unless a tick exhausted its
  /// retries with this request affected; see EscalationPolicy).  Sticky:
  /// once flagged/failed it stays so for the request's lifetime.
  [[nodiscard]] RequestHealth health(RequestId id) const;
  /// Every input row fed so far (prompt rows, then the fed-back generated
  /// rows): the matrix a from-scratch forward() would consume.  For tests
  /// and offline verification of cache-backed generation.  Empty when
  /// record_inputs is off, the request was retired, or rows were skipped
  /// by prefix sharing (sharing substitutes cached KV for compute).
  [[nodiscard]] tensor::MatrixF fed_inputs(RequestId id) const;

  /// The shared KV pool (occupancy, eviction and sharing stats; tile
  /// introspection for the stress tests).
  [[nodiscard]] const TilePool& pool() const noexcept { return pool_; }
  /// Context tiles currently referenced by live requests — the pool's
  /// in-use count.  Shared tiles count once, which is the capacity win.
  [[nodiscard]] std::size_t kv_tiles_in_use() const noexcept {
    return pool_.in_use();
  }
  /// Bytes pinned by live requests' tiles (K+V+sealed encodings).
  [[nodiscard]] std::size_t kv_bytes() const noexcept {
    return pool_.bytes_in_use();
  }
  /// The request's block table (pool tile ids), empty when not admitted.
  [[nodiscard]] std::vector<TilePool::TileId> kv_block_table(
      RequestId id) const;
  /// Tiles this request attached via prefix sharing (0 when not admitted).
  [[nodiscard]] std::size_t shared_tile_count(RequestId id) const;
  /// Times this request has been preempted so far.
  [[nodiscard]] std::size_t preemption_count(RequestId id) const;

 private:
  struct Request {
    std::unique_ptr<PagedKvCache> cache;   // block table over the pool
    tensor::MatrixF prompt;                // prompt rows [prompt_row0, end),
                                           //   kept for recompute-on-preempt
    std::size_t prompt_row0 = 0;           // rows before it are pinned tiles
    std::vector<TilePool::TileId> pinned;  // cached prefix tiles retained at
                                           //   submit, attached at admission
    std::size_t prompt_rows = 0;           // original prompt length
    std::size_t prefilled = 0;             // prompt rows in cache (shared
                                           //   + computed)
    std::size_t max_tokens = 0;            // context cap: prompt + budget
    Priority priority = Priority::kNormal;
    core::TileFmt kv_fmt = core::TileFmt::kF16;  // sealed-tile format
    std::vector<ChainKey> prompt_keys;     // shareable-prefix hash chain
    std::vector<float> next_in;            // next token's input row
    std::vector<float> last_hidden;        // final-LN output of last row
    std::vector<std::vector<float>> inputs;  // fed rows (record_inputs)
    attention::FtReport attention;         // lifetime attention report
    std::size_t tokens = 0;                // current context length
    std::size_t preemptions = 0;           // times preempted
    std::vector<float> draft;              // this tick's drafted rows
    std::size_t draft_rows = 0;            // 0 outside a speculative tick
    RequestHealth health = RequestHealth::kClean;  // recovery status
  };

  /// One request's share of a tick's row-stack.
  struct TickEntry {
    RequestId id;
    std::size_t row0;  ///< first row in the stacked X
    std::size_t rows;  ///< prefill: chunk size; decode: 1 + drafted rows
    bool prefill;
    std::size_t base;  ///< prefill: global position of the chunk's first row
    std::size_t accepted = 0;  ///< decode: drafts verified (set by advance)
    /// Escalated to kFailRequest by an exhausted retry: appends rolled
    /// back, the request retires instead of committing (set by advance).
    bool failed = false;
  };

  /// Sliding-window fault accounting for one physical shard (quarantine).
  struct ShardHealth {
    std::deque<std::size_t> window;  ///< per-tick attributed detections
    std::size_t window_sum = 0;
    bool quarantined = false;
    std::size_t probation = 0;  ///< ticks left before readmission
  };

  /// True when no path can read a prompt row after its prefill (no
  /// preemption, drafter or input recording): submit() may then pin the
  /// cached prefix and keep only the rows after it.
  [[nodiscard]] bool prompt_trimmable() const noexcept;
  /// Drop a request's submit-time prefix pins (rejection, retirement).
  void release_pins(Request& req);
  void retire(RequestId id);
  /// Preempt: release tiles, reset progress, re-queue at class front.
  void preempt_request(RequestId id);
  /// Rows this request would advance next tick (prefill chunk or 1).
  [[nodiscard]] std::size_t next_rows(const Request& req,
                                      RequestId id) const;

  /// Run the stacked rows X through the model: shared linears/FFN, one
  /// per-(request, head) query-block attention work item per entry —
  /// prefill chunks, decode rows and speculative blocks all through the
  /// same batch call.  Verifies speculative drafts against the final-LN
  /// outputs (filling each entry's `accepted`) and records committed rows.
  void advance(std::vector<TickEntry>& entries, tensor::MatrixF& X,
               fault::FaultInjector* inj, StepStats& stats);

  /// Scrubber rung: verify/repair scrub_tiles_per_tick sealed tiles at tick
  /// start and preempt the owners of any dropped tile onto the
  /// recompute-from-prompt path before this tick's compute can read it.
  void run_scrubber(StepStats& stats);
  /// Quarantine rung: push this tick's per-shard attributed detections into
  /// the sliding windows, quarantine over-threshold shards (never the last
  /// healthy one), count down probations and readmit.
  void update_shard_health(std::span<const std::size_t> tick_faults,
                           StepStats& stats);
  /// Rebuild healthy_ / head_owner_ / the degraded executor after a
  /// quarantine state change.
  void rebuild_shard_executor();

  [[nodiscard]] const Request& checked(RequestId id) const;

  friend TilePool& testing::engine_pool(DecodeEngine& e) noexcept;

  const transformer::Model* model_;
  EngineOptions opt_;
  TilePool pool_;
  Scheduler scheduler_;
  /// Non-null iff opt_.shards > 1: the barrier-stepped shard executor the
  /// clean-path tick dispatches into (injected ticks run run_tick_solo).
  std::unique_ptr<ShardedEngine> sharded_;
  std::vector<std::size_t> head_owner_;  ///< head -> owning shard index
  /// Lifetime per-shard attention reports (see shard_reports()).
  std::vector<attention::FtReport> shard_attention_;
  /// Quarantine state per physical shard (size shards(); all-healthy and
  /// inert unless the policy's quarantine rung is on).
  std::vector<ShardHealth> shard_health_;
  /// Physical ids of the non-quarantined shards, ascending.
  std::vector<std::size_t> healthy_;
  /// Non-null while any shard is quarantined: the executor over the healthy
  /// workers the tick dispatches into instead of sharded_ (column-parallel
  /// combine is bitwise for any worker count, so degraded ticks stay
  /// bit-identical to solo; ring mode stays deterministic, not bitwise).
  std::unique_ptr<ShardedEngine> degraded_;
  std::shared_ptr<TokenProposer> proposer_;  // non-null iff spec_tokens > 0
  std::vector<Request> requests_;
  /// Admitted, not-yet-retired ids, ascending (the tick's row-stack is in
  /// request-id order — the order the bit-identity tests pin).  Ticks sweep
  /// this instead of every request ever submitted, so a long-running
  /// engine's tick cost tracks the batch, not the lifetime request count.
  std::vector<RequestId> live_;
  StepStats lifetime_;
};

}  // namespace ftt::serve
