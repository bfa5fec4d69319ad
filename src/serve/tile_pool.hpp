#pragma once
// Paged KV storage: one shared pool of 64-row context tiles behind every
// request's block table (vLLM-style PagedAttention, specialized to the
// fault-tolerant decode kernel's checksum footprint).
//
// A *context tile* holds 64 tokens of K/V for every layer and head of the
// model, plus — when checksum memoization is enabled — the four sealed
// strided-ABFT encodings of each (layer, head) 64 x dim tile pair, all in
// one contiguous slab.  Because the encodings live inside the tile, sharing
// a tile shares its ABFT memo too: a prefix computed (and encoded) once is
// verified from the same sealed checksums by every request that maps it.
//
// Tiles are refcounted.  A request's PagedKvCache maps context positions to
// pool tiles through a block table; sealed tiles are immutable, so sharing
// needs no copy-on-write machinery beyond the rule that only the *open tail
// tile* of each request is ever written, and the tail is always private
// (shared tiles are attached only in the sealed state).  When a tile's
// refcount drops to zero it is not destroyed:
//
//   * unpublished tiles (generated rows, aborted prefills) go on a dead
//     list and are the first choice for reuse — reclaiming them loses
//     nothing;
//   * published tiles (sealed prompt tiles registered under a prefix hash
//     chain) stay cached and remain discoverable through lookup_shared()
//     until they are recycled, oldest first.  The cache has two LRU
//     segments: a tile that was never looked up goes on the *cold* list, a
//     tile that was hit at least once on the *hot* list.
//
// acquire() prefers dead tiles, then cold cached tiles, then fresh
// capacity, then LRU eviction of hot cached tiles; only when every tile is
// referenced does it fail (kNoTile), which is the signal the engine turns
// into preemption.  Recycling cold tiles before growing keeps an unbounded
// pool from holding every prompt tile it ever published, while a prefix
// that is actually being shared survives in the hot segment.
//
// Prefix sharing is keyed by a hash chain: tile t's key extends tile t-1's
// key with the bytes that *determine* the tile's sealed contents (the
// engine hashes the prompt's hidden rows — the model is deterministic and
// the batched path bit-identical per row, so equal prompt prefixes produce
// bit-identical sealed tiles in every layer).  Keys are 128 bits (two
// independent 64-bit FNV-1a chains) so an accidental collision — which
// would silently splice the wrong KV into a context — is out of reach for
// any realistic pool lifetime; lookups compare the full key.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "abft/strided_abft.hpp"
#include "core/decode.hpp"
#include "numeric/fp16.hpp"

namespace ftt::serve {

/// 128-bit prefix-chain key.  Value-initialized = the empty-chain root.
struct ChainKey {
  std::uint64_t a = 0, b = 0;

  friend bool operator==(const ChainKey& x, const ChainKey& y) noexcept {
    return x.a == y.a && x.b == y.b;
  }
};

/// Extend `parent` with `bytes` more input (two independent FNV-1a chains).
[[nodiscard]] ChainKey chain_extend(const ChainKey& parent, const void* data,
                                    std::size_t bytes) noexcept;

struct TilePoolOptions {
  std::size_t layers = 0;
  std::size_t heads = 0;
  std::size_t dim = 0;
  /// Pool capacity in context tiles.  0 = unbounded: acquire() never fails,
  /// the pool grows on demand and eviction only recycles dead/cached tiles
  /// that already exist.
  std::size_t capacity_tiles = 0;
  /// Checksum stride for the sealed-tile encodings.  A stride that does not
  /// divide both the 64-row tile and `dim` — or an explicit value <= 0 —
  /// disables memoization instead of rejecting the pool (enc_stride()
  /// reports 0); decode then encodes fresh per call.
  int enc_stride = abft::StridedAbft::kDefaultStride;
  /// Sealed-tile image policy (core::ImagePolicy):
  ///   * kF16T — pre-transposed fp16 image (detail::build_f16t_image
  ///     layout, [K^T | Kc1^T | Kc2^T] halves): ~0.5x extra memory, zero
  ///     per-tile packing, operands widened 8 lanes at a time inside the
  ///     fp16-operand microkernels.  Same decoded bits as kNone.
  ///   * kNone — no image; decode widens/packs per call.
  /// The image requires the encoding memo; forced to kNone when enc_stride
  /// is disabled.
  core::ImagePolicy images = core::ImagePolicy::kNone;
};

/// Outcome of one incremental scrub pass (TilePool::scrub).
struct ScrubReport {
  std::size_t scanned = 0;   ///< sealed tiles verified this pass
  std::size_t repaired = 0;  ///< (layer, head) blocks repaired in place
  /// Unrepairable tiles: unpublished and unsealed by the pool; the caller
  /// (engine) must force their owning requests down the
  /// recompute-on-readmission path before any further compute.
  std::vector<std::size_t> dropped;
};

class TilePool {
 public:
  using TileId = std::size_t;
  static constexpr TileId kNoTile = static_cast<TileId>(-1);
  static constexpr std::size_t kTileRows = core::KvSlice::kTileRows;

  explicit TilePool(TilePoolOptions opt);

  /// Incremental KV scrubber: walk up to `max_tiles` sealed tiles (a
  /// round-robin cursor persists across calls) and re-verify each (layer,
  /// head) block's in-slab strided-ABFT encodings against its fp16
  /// payload, bit for bit.
  ///
  ///   * payload and encodings consistent, but the optional f16t image
  ///     disagrees -> the image is rebuilt from the (authoritative) fp16
  ///     slab (`repaired`);
  ///   * exactly one encoding element disagrees with a fresh encode ->
  ///     checksum-class corruption, the sealed encodings (and image) are
  ///     rewritten in place (`repaired`);
  ///   * two or more disagree -> payload-class corruption: with kF16T
  ///     images the K payload is restored by de-transposing the image's
  ///     Half bits verbatim and re-verified (`repaired`).  The image
  ///     carries no V copy, so V-payload corruption is unrepairable in
  ///     place; without images (or on a failed re-verify) the tile is
  ///     unrepairable — it is unpublished, unsealed and reported in
  ///     `dropped` (refcount-0 tiles go straight to the dead list), and
  ///     the engine recomputes it bitwise-correct.
  ///
  /// Classification is exact under a single-fault assumption per tile;
  /// sub-threshold low-order payload flips that cancel in every checksum
  /// are indistinguishable from a checksum flip and repaired as such —
  /// the same precision floor the decode-time ABFT thresholds accept.
  /// Requires the encoding memo; with enc_stride() == 0 there is no
  /// redundancy to verify against and scrub() is a no-op.
  ///
  /// NOTE: memory faults are outside the paper's fault model (KV storage
  /// is assumed ECC-protected); the scrubber is the belt-and-braces rung
  /// for deployments without that guarantee, exercised through the
  /// serve::testing corruption hooks below.
  ScrubReport scrub(std::size_t max_tiles);

  /// A fresh zero-initialized tile with refcount 1, reclaiming dead tiles,
  /// then evicting the LRU cold (never hit) cached tile, then fresh
  /// capacity, then evicting the LRU hot cached tile.  kNoTile only when the
  /// pool is bounded and every tile is referenced.
  ///
  /// `fmt` picks the tile's sealed storage format; both formats coexist in
  /// one pool, and a reclaimed tile converts to the requested format on
  /// reuse.  A kI8 tile stages its appends in the ordinary fp16 slab (the
  /// ragged tail is always fp16); at seal time each (layer, head) block is
  /// quantized into the tile's i8 slab (detail::quantize_sealed_tile — the
  /// owning PagedKvCache drives this per layer) and the pool-wide seal()
  /// frees the staging slab, which is the capacity win.  Requires the
  /// encoding memo: kI8 with enc_stride() == 0 throws std::logic_error.
  [[nodiscard]] TileId acquire(core::TileFmt fmt = core::TileFmt::kF16);

  void retain(TileId id);
  /// Drop one reference.  Throws std::logic_error on refcount underflow —
  /// an underflow means a block table double-released a tile, which the
  /// randomized stress test treats as corruption, never as noise.
  void release(TileId id);

  /// Probe the prefix registry.  On a hit the tile is retained for the
  /// caller (and pulled off the cached lists if it was unreferenced) and
  /// marked hit, so its next release caches it in the hot segment.
  [[nodiscard]] TileId lookup_shared(const ChainKey& key);

  /// Mark a tile fully written (all layers appended and encoded).  Only
  /// sealed tiles may be attached by other requests.  Sealing a kI8 tile
  /// frees its fp16 staging slab — every (layer, head) block must already
  /// be quantized into the i8 slab; k_tile()/v_tile()/enc_block() return
  /// nullptr for it from here on.
  void seal(TileId id);
  [[nodiscard]] bool sealed(TileId id) const;

  /// Register a sealed tile under a prefix key.  First writer wins: if the
  /// key is already mapped the call is a no-op returning false (the caller
  /// keeps its private tile; the earlier copy stays the shared one).
  bool publish(TileId id, const ChainKey& key);

  // --- storage access (slab layout: per (layer, head):
  //     [K 64*dim | V 64*dim | kc1 s*dim | kc2 s*dim | vc1 64*s | vc2 64*s])
  [[nodiscard]] numeric::Half* k_tile(TileId id, std::size_t layer,
                                      std::size_t head) noexcept;
  [[nodiscard]] numeric::Half* v_tile(TileId id, std::size_t layer,
                                      std::size_t head) noexcept;
  /// The four-encoding block of one (layer, head) tile, or nullptr when
  /// memoization is disabled.
  [[nodiscard]] numeric::Half* enc_block(TileId id, std::size_t layer,
                                         std::size_t head) noexcept;
  [[nodiscard]] const numeric::Half* k_tile(TileId id, std::size_t layer,
                                            std::size_t head) const noexcept;
  [[nodiscard]] const numeric::Half* v_tile(TileId id, std::size_t layer,
                                            std::size_t head) const noexcept;
  [[nodiscard]] const numeric::Half* enc_block(TileId id, std::size_t layer,
                                               std::size_t head) const noexcept;
  /// The pre-transposed fp16 image of one (layer, head) tile
  /// (f16t_image_halves halves, written at seal time), or nullptr when the
  /// policy is not kF16T.  Contents are only meaningful once the tile's
  /// layer sealed.
  [[nodiscard]] numeric::Half* f16t_image(TileId id, std::size_t layer,
                                          std::size_t head) noexcept;
  [[nodiscard]] const numeric::Half* f16t_image(TileId id, std::size_t layer,
                                                std::size_t head)
      const noexcept;
  /// Storage format the tile was acquired with (kF16 tiles never hold an i8
  /// slab; kI8 tiles hold one from acquisition and drop their fp16 staging
  /// slab at seal).
  [[nodiscard]] core::TileFmt format(TileId id) const;
  /// One (layer, head) block of a kI8 tile's i8 slab
  /// (detail::I8TileLayout), or nullptr for kF16 tiles.
  [[nodiscard]] std::uint8_t* i8_block(TileId id, std::size_t layer,
                                       std::size_t head) noexcept;
  [[nodiscard]] const std::uint8_t* i8_block(TileId id, std::size_t layer,
                                             std::size_t head) const noexcept;
  /// Bytes of one (layer, head) i8 block (0 when the encoding memo is
  /// disabled — the i8 format requires it).
  [[nodiscard]] std::size_t i8_block_bytes() const noexcept {
    return i8_block_bytes_;
  }

  [[nodiscard]] std::size_t layers() const noexcept { return layers_; }
  [[nodiscard]] std::size_t heads() const noexcept { return heads_; }
  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }
  [[nodiscard]] int enc_stride() const noexcept { return enc_stride_; }
  /// Sealed-tile image policy in effect (kNone when enc_stride disabled).
  [[nodiscard]] core::ImagePolicy images() const noexcept { return images_; }
  /// Capacity in tiles (0 = unbounded).
  [[nodiscard]] std::size_t capacity() const noexcept {
    return capacity_tiles_;
  }
  /// Tiles ever materialized (<= capacity when bounded).
  [[nodiscard]] std::size_t allocated() const noexcept {
    return tiles_.size();
  }
  /// Tiles with refcount > 0.
  [[nodiscard]] std::size_t in_use() const noexcept { return in_use_; }
  /// Tiles acquire() could hand out without failing: unreferenced tiles
  /// plus unmaterialized capacity (SIZE_MAX when unbounded).  The engine
  /// uses this as its admission hint.
  [[nodiscard]] std::size_t allocatable() const noexcept;
  [[nodiscard]] std::size_t refcount(TileId id) const;
  /// Published (prefix-registered) tiles currently discoverable.
  [[nodiscard]] std::size_t published() const noexcept {
    return registry_.size();
  }
  /// Lifetime counters (evictions: cached tiles recycled, cold or hot).
  [[nodiscard]] std::size_t evictions() const noexcept { return evictions_; }
  [[nodiscard]] std::size_t shared_hits() const noexcept {
    return shared_hits_;
  }
  /// Halves per context-tile slab (K+V+encodings across all layers/heads).
  [[nodiscard]] std::size_t slab_halves() const noexcept {
    return slab_halves_;
  }
  /// Bytes held by *referenced* tiles (what live requests pin).  Format-
  /// aware: sums each tile's actual current slabs — fp16 staging (freed
  /// when a kI8 tile seals), f16t image, i8 — so a mixed-format pool
  /// reports the real mixed footprint.
  [[nodiscard]] std::size_t bytes_in_use() const noexcept;
  /// Bytes of every materialized slab, cached/dead tiles included.
  [[nodiscard]] std::size_t bytes_allocated() const noexcept;
  /// Steady-state bytes of one sealed tile of `fmt` in this pool's
  /// configuration (kF16: fp16 slab + optional f16t image; kI8: the i8
  /// slab alone — its staging slab is freed at seal).  The byte-capacity
  /// planning hook for benches and the capacity gauges.
  [[nodiscard]] std::size_t tile_bytes(core::TileFmt fmt) const noexcept;

 private:
  struct ChainKeyHash {
    std::size_t operator()(const ChainKey& k) const noexcept {
      return static_cast<std::size_t>(k.a ^ (k.b * 0x9e3779b97f4a7c15ull));
    }
  };

  struct Tile {
    /// fp16 slab: the tile's storage for kF16 tiles, the append staging
    /// area for kI8 tiles (freed when a kI8 tile seals, reallocated on
    /// recycle).
    std::unique_ptr<numeric::Half[]> slab;
    /// Pre-transposed fp16 image slab (kF16T policy, kF16 tiles only): one
    /// f16t_image_halves block per (layer, head).  Not zeroed on recycle —
    /// the image is fully overwritten at seal time and never read before.
    std::unique_ptr<numeric::Half[]> hslab;
    /// i8 slab (kI8 tiles only): one detail::I8TileLayout block per
    /// (layer, head).  Not zeroed on recycle for the same reason.
    std::unique_ptr<std::uint8_t[]> qslab;
    core::TileFmt format = core::TileFmt::kF16;
    std::size_t refs = 0;
    bool sealed = false;
    bool is_published = false;
    bool hit = false;   // looked up since it was (re)acquired
    ChainKey key;       // valid while is_published
    std::uint64_t stamp = 0;  // matches its cached-list entry; 0 = not listed
  };

  [[nodiscard]] Tile& checked(TileId id);
  [[nodiscard]] const Tile& checked(TileId id) const;
  /// Reset a reclaimed tile for reuse as `fmt`: zero (or reallocate) the
  /// fp16 slab (the decode kernel's ragged-tail padding convention), swap
  /// the format-specific slabs, clear seal/publication state.
  void recycle(TileId id, core::TileFmt fmt);
  /// Recycle the least-recently-released live entry of `lru` (skipping
  /// stale ones) as a referenced `fmt` tile; kNoTile when none is left.
  [[nodiscard]] TileId evict_lru(
      std::deque<std::pair<TileId, std::uint64_t>>& lru, core::TileFmt fmt);
  [[nodiscard]] std::size_t offset(std::size_t layer,
                                   std::size_t head) const noexcept;

  std::size_t layers_, heads_, dim_;
  int enc_stride_;
  core::ImagePolicy images_;
  std::size_t capacity_tiles_;
  std::size_t per_lh_halves_ = 0;  // K+V+enc of one (layer, head)
  std::size_t himg_halves_ = 0;    // f16t image of one (layer, head), 0 if off
  std::size_t enc_halves_ = 0;     // the enc portion of the above
  std::size_t slab_halves_ = 0;
  std::size_t i8_block_bytes_ = 0;  // one (layer, head) i8 block, 0 if no enc
  std::size_t in_use_ = 0;
  std::size_t evictions_ = 0;
  std::size_t shared_hits_ = 0;
  std::size_t scrub_cursor_ = 0;  // round-robin scrub position
  std::uint64_t clock_ = 0;
  std::vector<Tile> tiles_;
  std::deque<TileId> dead_;                       // refcount 0, unpublished
  // Cached (published, refcount 0) tiles, LRU, lazy-stale: hit at least
  // once (hot) or never (cold).
  std::deque<std::pair<TileId, std::uint64_t>> cached_;
  std::deque<std::pair<TileId, std::uint64_t>> cold_;
  std::unordered_map<ChainKey, TileId, ChainKeyHash> registry_;
};

namespace testing {
/// Test-only memory-corruption hooks for the scrubber: flip one bit of a
/// sealed tile's storage.  Memory faults are outside the paper's fault model
/// (KV storage is assumed ECC-protected), so these exist purely to exercise
/// TilePool::scrub()'s classification/repair paths — never a serving API.
/// `half_index` addresses the (layer, head) block's contiguous
/// [K | V | encodings] halves.
void flip_slab_bit(TilePool& pool, TilePool::TileId id, std::size_t layer,
                   std::size_t head, std::size_t half_index, unsigned bit);
/// Image counterpart of flip_slab_bit: flip one bit of one half of a sealed
/// tile's pre-transposed fp16 (kF16T) image block.
void flip_f16t_bit(TilePool& pool, TilePool::TileId id, std::size_t layer,
                   std::size_t head, std::size_t half_index, unsigned bit);
/// i8-tile counterpart: flip one bit of one byte of a kI8 tile's
/// (layer, head) block — `byte_index` addresses the whole
/// detail::I8TileLayout block (scales, int32 encodings, payload and Half
/// encodings are all reachable), so every scrubber classification arm is
/// exercisable.  Throws std::logic_error on a kF16 tile.
void flip_i8_bit(TilePool& pool, TilePool::TileId id, std::size_t layer,
                 std::size_t head, std::size_t byte_index, unsigned bit);
}  // namespace testing

/// Process-default sealed-tile format: core::TileFmt::kI8 when the
/// FTT_KV_QUANT environment variable is set to anything but "" or "0",
/// else kF16.  This is the int8-default-on switch the CI matrix leg flips
/// (scripts/run_tier1.sh): every PagedKvCache and DecodeEngine that does
/// not pick a format explicitly inherits it, so the whole serve stack —
/// engine ticks, prefix sharing, recovery ladder — runs quantized without
/// touching a line of test code.  Read once and cached; explicit
/// constructor/option arguments always win.
[[nodiscard]] core::TileFmt default_tile_format() noexcept;

/// One request's paged view of the pool: a block table of context tiles plus
/// the per-(layer, head) tile-pointer arrays core::KvSlice consumes.
///
/// The write protocol matches the engine's tick: ensure_capacity() runs in
/// the tick's memory phase (the only place tiles are acquired — it can fail,
/// and failure is the preemption signal), then append_chunk() lands the same
/// rows layer by layer and never allocates.  Per-layer lengths track the
/// mid-tick state where layer L has appended this tick's rows but layer L+1
/// has not; slice(layer, head) reads the per-layer length.
///
/// When a (layer, head) tile fills, its four checksum encodings are sealed
/// into the tile slab (same bits as a fresh per-call encode — the shared
/// encode_sealed_tile helper); when the *last* layer fills, the tile is
/// sealed pool-wide and reported through take_newly_sealed() so the engine
/// can publish fully-prompt tiles for prefix sharing.
class PagedKvCache {
 public:
  /// `fmt` is the request's sealed-tile format: kI8 quantizes every tile
  /// the request fills as it seals (per layer — a layer's block converts
  /// the moment that layer's rows complete the tile) and attaches only kI8
  /// shared tiles; the open ragged tail always stays fp16.  Both formats
  /// coexist in one pool; the engine keys prefix chains per format, and
  /// attach_shared() enforces the no-cross-format rule besides.  kI8
  /// requires the pool's encoding memo (throws std::logic_error without
  /// it).
  explicit PagedKvCache(TilePool& pool,
                        core::TileFmt fmt = default_tile_format());
  ~PagedKvCache();
  PagedKvCache(const PagedKvCache&) = delete;
  PagedKvCache& operator=(const PagedKvCache&) = delete;

  /// Attach an already-sealed shared tile at the end of the block table
  /// (admission-time prefix reuse; the pool retained it in lookup_shared).
  /// All per-layer lengths advance by the full 64 rows.
  void attach_shared(TilePool::TileId id);

  /// Grow the block table until it can hold `tokens` context rows.  Returns
  /// false — with the table unchanged beyond already-acquired tiles — when
  /// the pool cannot supply a tile; the caller preempts and retries, or
  /// backs off.
  [[nodiscard]] bool ensure_capacity(std::size_t tokens);

  /// Append `rows` tokens' K/V for one layer (head-major rows of heads*dim
  /// halves, the split-heads layout of a projected rows x hidden block).
  /// Capacity must already be ensured; throws std::logic_error otherwise —
  /// the engine's memory phase is the only allocation site by design.
  ///
  /// `defer_seal` is the speculative-append mode: tiles this chunk fills
  /// are NOT sealed (no encodings, no pool-wide seal, no publication
  /// candidacy), because some of the chunk's rows may be rejected and
  /// rolled back — a sealed tile is immutable and shareable, so sealed
  /// tiles are never speculative.  truncate() seals whatever the commit
  /// leaves fully covered.
  void append_chunk(std::size_t layer, std::span<const numeric::Half> k,
                    std::span<const numeric::Half> v, std::size_t rows,
                    bool defer_seal = false);

  /// Commit a speculative tick: roll the context back to `tokens` rows
  /// (the accepted prefix), then seal every tile the committed context
  /// fully covers.  Rolled-back rows are zeroed in the kept open tile
  /// (restoring the kernel's zero-padding convention); tail tiles left
  /// entirely empty are released back to the pool (they were acquired
  /// fresh this tick and recycle zeroed).  Requires every layer to have
  /// appended the same row count (the post-compute state of a tick) and
  /// `tokens` to lie at or beyond the sealed region — sealed tiles are
  /// never speculative, so rolling back into one is a logic error.
  void truncate(std::size_t tokens);

  [[nodiscard]] core::KvSlice slice(std::size_t layer,
                                    std::size_t head) const;

  /// Context rows fully appended (every layer).
  [[nodiscard]] std::size_t length() const noexcept;
  [[nodiscard]] std::size_t layer_length(std::size_t layer) const {
    return layer_len_.at(layer);
  }
  [[nodiscard]] const std::vector<TilePool::TileId>& block_table()
      const noexcept {
    return table_;
  }
  /// Tiles attached through prefix sharing (vs acquired fresh).
  [[nodiscard]] std::size_t shared_tiles() const noexcept {
    return shared_tiles_;
  }

  /// Block-table indices whose tiles sealed (all layers full) since the
  /// last call — the engine publishes the fully-prompt ones.
  [[nodiscard]] std::vector<std::size_t> take_newly_sealed();

  /// Release every tile and reset to empty (preemption / retirement).
  void release_all();

  /// The request's sealed-tile format.
  [[nodiscard]] core::TileFmt format() const noexcept { return fmt_; }

 private:
  struct HeadPtrs {
    std::vector<const numeric::Half*> k, v, kc1, kc2, vc1, vc2;
    // Per-tile pre-transposed fp16 image pointers (null until the layer
    // tile seals, and always null when the pool's policy is not kF16T).
    std::vector<const numeric::Half*> f16t;
    // Per-tile i8 payload pointers and power-of-two scales (kI8 caches
    // only; null/0 until the layer tile quantizes).
    std::vector<const std::int8_t*> kq, vq;
    std::vector<float> ks, vs;
  };

  void push_tile_ptrs(TilePool::TileId id, bool with_enc);
  void seal_layer_tile(std::size_t layer, std::size_t tile_index);
  /// Seal layer tiles [sealed_tiles_[layer], upto) in order.  Sealing is
  /// strictly left to right per layer, so the counter fully describes the
  /// sealed region — deferred (speculative) appends simply leave it behind
  /// until truncate() advances it over the committed tiles.
  void seal_layer_through(std::size_t layer, std::size_t upto);

  TilePool* pool_;
  core::TileFmt fmt_;
  std::vector<TilePool::TileId> table_;
  std::vector<std::size_t> layer_len_;
  std::vector<std::size_t> sealed_tiles_;  // per layer: tiles sealed so far
  std::vector<HeadPtrs> ptrs_;  // indexed layer * heads + head
  /// Per-layer, per-tile storage format (kI8 caches only): a tile's layer-L
  /// entry flips to kI8 when layer L quantizes, so a mid-tick slice of an
  /// already-quantized layer streams i8 while later layers still stage
  /// fp16.  Shared across the layer's heads (KvSlice::fmt).
  std::vector<std::vector<core::TileFmt>> layer_fmt_;
  std::size_t shared_tiles_ = 0;
  std::vector<std::size_t> newly_sealed_;
};

}  // namespace ftt::serve
