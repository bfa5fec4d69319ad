#pragma once
// Protected cache-backed decode: the autoregressive inference step the
// paper's introduction motivates ("generating a single token in GPT-4
// requires 560 GFLOPs and billions of tokens are produced each day").
//
// The unit of work is a *query block* of 1..64 rows attending over the
// cached K/V of one (request, head) slice, causally masked inside the
// block.  The same hybrid scheme applies per row: strided tensor checksums
// per 64-row KV tile protect q·K^T, the checksum is reused through
// subtract-max + EXP (log-domain product check), the rowsum is range
// restricted, and the output rows carry V column checksums through the
// final normalization — with the per-tile loads, widenings and checksum
// encodes amortized across the whole block.
//
// One kernel, three workloads, all the same DecodeWorkItem:
//
//   q_len = 1      single-token decode — the classic serving step;
//   q_len = k+1    speculative decode — one committed row plus k drafted
//                  candidates scored in one pass (the engine accepts the
//                  longest bit-matching prefix and rolls the rest back);
//   q_len = 64     chunked prefill — a prompt chunk absorbed per tick.
//
// Each output row is bit-identical to running efta_decode_step token by
// token over the same prefix (tests/test_serve.cpp pins this down), which
// is what makes engine-level speculation safe: an accepted draft's hidden
// state *is* the serial result, verified through the same checksummed
// arithmetic.
//
// Context lengths are arbitrary: a ragged final tile (n % 64 != 0) is
// zero-padded to the full 64-row checksum footprint.  Padded K rows produce
// exactly-zero scores (fp16 MACs against zero operands), so the strided
// checksum relation and the EXP product check hold over the padded lanes,
// which are then excluded from the softmax reduction and carry zero weight
// into GEMM II.  Lanes beyond a block row's causal horizon are handled by
// the same convention.
//
// The batch entry point runs many independent (request, head) blocks
// through the kernel, OpenMP-parallel with per-item FtReport aggregation —
// the unit of work a batched serving engine schedules per tick.

#include <cstdint>
#include <span>
#include <utility>

#include "attention/ft_report.hpp"
#include "core/efta.hpp"

namespace ftt::core {

/// Storage format of one sealed KV context tile.  kF16 is the native fp16
/// slab; kI8 is the quantized tile format (serve::TilePool seal-time
/// quantization): int8 payload with a per-tile power-of-two scale, exact
/// int32 integer checksums at rest, and sealed fp16 encodings of the
/// (exactly) dequantized payload for the decode-time ABFT GEMMs.
enum class TileFmt : std::uint8_t { kF16 = 0, kI8 = 1 };

/// Seal-time image memo policy for fp16 (kF16) tiles.  An image is an
/// operand layout pre-baked at seal so a clean decode tick does no per-call
/// packing:
///   kNone — no image; decode widens/packs per tile per call.
///   kF16T — pre-transposed *fp16* image: [K^T d x 64 | Kc1^T d x s |
///           Kc2^T d x s] halves.  The K side lands in the fused fp16-operand
///           kernels' native k-major layout at half width (~1.5x the bare
///           slab); the V side needs no image at all — V and its column
///           checksums are already row-major streams for axpy_f32_h.
///           Default: the decode fast path.
/// Exactness of fp16->fp32 widening makes both policies bit-identical in
/// decode output.
enum class ImagePolicy : std::uint8_t { kNone = 0, kF16T = 1 };

/// Read-only tiled view of one (request, head) KV slice.  Tile t holds rows
/// [64t, min(64(t+1), n)) of the logical n x d cache, row-major, in storage
/// of 64 x d halves; rows past the valid count must not be read (the kernel
/// zero-pads its working tile instead).  This is the natural shape of a
/// growable KV cache that appends in 64-row tiles without relocating old
/// rows — and, just as deliberately, of a *paged* cache whose block table
/// maps context tiles to pooled storage (serve::TilePool): the per-tile
/// pointer indirection means the kernel never distinguishes private,
/// pooled or prefix-shared tiles, so paging and sharing are invisible to
/// the verified decode path and cannot perturb its bit-identity
/// guarantees.
struct KvSlice {
  static constexpr std::size_t kTileRows = 64;

  const numeric::Half* const* k_tiles = nullptr;
  const numeric::Half* const* v_tiles = nullptr;
  std::size_t n = 0;  ///< valid context rows
  std::size_t d = 0;  ///< head dimension

  /// Optional memoized per-tile checksum encodings (serve::TilePool computes
  /// them once when a tile seals; full tiles are immutable so they are never
  /// invalidated, and a prefix-shared pool tile shares its sealed encodings
  /// with every request that maps it).  Each array has tiles() entries;
  /// k_c1/k_c2 point at enc_stride x d row checksums and v_c1/v_c2 at
  /// kTileRows x enc_stride column checksums, all row-major fp16.  Entries for the unsealed ragged
  /// tail are null.  The kernel consumes them on clean runs when enc_stride
  /// matches its own stride option; an armed (or probing) fault injector
  /// forces fresh per-call encodes so campaign hook counts stay stable.
  const numeric::Half* const* k_c1 = nullptr;
  const numeric::Half* const* k_c2 = nullptr;
  const numeric::Half* const* v_c1 = nullptr;
  const numeric::Half* const* v_c2 = nullptr;
  int enc_stride = 0;  ///< checksum stride the encodings were built with

  /// Optional memoized pre-transposed *fp16* image per sealed tile (the
  /// kF16T policy, ~1.5x slab bytes).  Entry j, when non-null, packs three
  /// Half blocks back to back:
  ///   [ K^T  d x 64 (k-major) | Kc1^T d x s | Kc2^T d x s ]
  /// with s == enc_stride.  The fused fp16-operand kernels widen these in
  /// registers (exact) and transposition is pure data movement, so
  /// consuming the image is bit-identical to per-call widening; the V
  /// operands stream straight from v_tiles / v_c1 / v_c2, which are already
  /// in axpy-native row-major layout.  Same gating as the encodings: entries
  /// for unsealed tiles are null and an armed injector bypasses the memo.
  const numeric::Half* const* f16t = nullptr;

  /// Optional per-tile storage formats (null == every tile is kF16, the
  /// layout every field above describes).  A kI8 tile streams its payload
  /// from k_i8/v_i8 instead of k_tiles/v_tiles (which are null for it) and
  /// widens by exact dequantization — k_scale/v_scale hold the per-tile
  /// power-of-two scales, so q * scale is exact and the decode GEMMs keep
  /// every bit-identity contract.  Layouts are GEMM-native: k_i8[j] is the
  /// *k-major* K^T (d x 64) the fused score GEMM consumes directly, v_i8[j]
  /// is row-major V (64 x d) for GEMM II's axpy, and the tile's k_c1/k_c2
  /// memo entries point at *transposed* (d x enc_stride) fp16 blocks —
  /// mirroring the f16t image's Kc^T blocks — while v_c1/v_c2 keep the
  /// row-major shape above.  The sealed encodings of an int8 tile are the
  /// fp16 encodings of its dequantized payload (bit-equal to a fresh encode
  /// of the dequantized image).  Only sealed full tiles are ever kI8; the
  /// ragged open tail stays fp16.
  const TileFmt* fmt = nullptr;
  const std::int8_t* const* k_i8 = nullptr;
  const std::int8_t* const* v_i8 = nullptr;
  const float* k_scale = nullptr;  ///< per-tile K scales (power of two)
  const float* v_scale = nullptr;  ///< per-tile V scales (power of two)

  [[nodiscard]] std::size_t tiles() const noexcept {
    return (n + kTileRows - 1) / kTileRows;
  }
};

/// One (request, head) query block of a batched step: the last `q_len` rows
/// of the context attend over `kv`, causally masked inside the block.  The
/// cache must already hold the block's own K/V rows, so the block occupies
/// global positions [kv.n - q_len, kv.n): row r of the block sees exactly
/// rows [0, kv.n - q_len + r] of the cache — its causal prefix, itself
/// included — making each output row bit-identical to feeding the block
/// token by token through efta_decode_step.
///
/// q/out address q_len x d values laid out with a row stride (in elements)
/// of q_stride/out_stride; 0 means densely packed (stride == d).  Strided
/// rows let a serving engine hand head-segments of a stacked hidden matrix
/// to the kernel without gather/scatter copies.
struct DecodeWorkItem {
  KvSlice kv;
  const numeric::Half* q = nullptr;
  float* out = nullptr;
  std::size_t q_len = 1;  ///< 1..64 query rows (1 = plain decode)
  std::size_t q_stride = 0;
  std::size_t out_stride = 0;
};

/// One protected query block for a single head.  Scaling by 1/sqrt(d) is
/// applied internally.  The report covers the whole block — one FtReport
/// witnesses every row, exactly like the per-tile block verifies inside —
/// and `faults_injected` counts only the flips placed during this call
/// (delta, not the injector's lifetime total), matching the batch entry's
/// per-item accounting.
attention::FtReport efta_decode_block(const DecodeWorkItem& item,
                                      const EftaOptions& opt = {},
                                      fault::FaultInjector* inj = nullptr);

/// One protected decode step (q_len = 1 convenience) for a single head over
/// a tiled KV view: the new token at position n-1 attends the whole cache.
attention::FtReport efta_decode_step(const KvSlice& kv,
                                     std::span<const numeric::Half> q,
                                     std::span<float> out,
                                     const EftaOptions& opt = {},
                                     fault::FaultInjector* inj = nullptr);

/// Convenience overload over contiguous n x d caches (any n >= 1).
attention::FtReport efta_decode_step(const tensor::MatrixH& k_cache,
                                     const tensor::MatrixH& v_cache,
                                     std::span<const numeric::Half> q,
                                     std::span<float> out,
                                     const EftaOptions& opt = {},
                                     fault::FaultInjector* inj = nullptr);

/// Protected decode for a whole batch of independent (request, head) query
/// blocks with heterogeneous context lengths and block sizes — single-token
/// decode rows, speculative k-row blocks and 64-row prefill chunks mix
/// freely in one call.  Items are OpenMP-parallel when `inj` is null; any
/// injector — armed, or an unarmed probe counting per-site calls() — is
/// stateful and forces the serial path, matching `efta_decode_block`.
/// Per-item reports are written to `per_item` when provided (size must
/// match) and merged into the returned aggregate; each item's
/// `faults_injected` counts only the flips placed while that item ran.  An
/// empty batch returns a zeroed report without entering an OpenMP region.
attention::FtReport efta_decode_batch(
    std::span<const DecodeWorkItem> items, const EftaOptions& opt = {},
    fault::FaultInjector* inj = nullptr,
    std::span<attention::FtReport> per_item = {});

/// Even contiguous split of `total` units (heads, rows, checksum tiles)
/// across `nshards`: shard i owns [first, second) and range sizes differ by
/// at most one, so any unit count — including total < nshards, where the
/// trailing shards own empty ranges — partitions cleanly.  Throws when
/// shard >= nshards or nshards == 0.
[[nodiscard]] std::pair<std::size_t, std::size_t> shard_range(
    std::size_t shard, std::size_t nshards, std::size_t total);

/// Contiguous attention-head range [begin_head, end_head) owned by one
/// shard worker of a sharded serving tick.  Work items are per (request,
/// head) and fully independent, so a head-range partition of a batch is
/// bit-invariant: the union of the shards' outputs and the merge of their
/// reports equal the unsharded batch exactly, for any shard count.
struct ShardSpec {
  std::size_t begin_head = 0;
  std::size_t end_head = 0;  ///< exclusive; == begin_head for an empty shard

  [[nodiscard]] bool contains(std::size_t head) const noexcept {
    return head >= begin_head && head < end_head;
  }
  [[nodiscard]] std::size_t heads() const noexcept {
    return end_head - begin_head;
  }
  [[nodiscard]] bool empty() const noexcept { return end_head <= begin_head; }

  /// The even contiguous partition of `total_heads` across `nshards`
  /// (shard_range above); shards past the head count own empty ranges.
  static ShardSpec for_shard(std::size_t shard, std::size_t nshards,
                             std::size_t total_heads);
};

/// Head-range view of a batch: runs exactly the items whose owning head
/// (item_heads[i], parallel to `items`) falls inside `shard`, serially on
/// the calling thread — the thread-level parallelism of a sharded tick is
/// the shard workers themselves, so the kernel must not open a nested
/// OpenMP team (oversubscription, and raw-thread callers stay
/// ThreadSanitizer-clean).  Covered items' `per_item` slots are written;
/// uncovered slots are left untouched, so N shards with disjoint specs fill
/// one shared per-item array without overlap and the slot-wise sum of their
/// returned reports equals the unsharded batch report.  Item validation
/// covers only the shard's own items.
attention::FtReport efta_decode_batch(
    std::span<const DecodeWorkItem> items,
    std::span<const std::size_t> item_heads, const ShardSpec& shard,
    const EftaOptions& opt = {}, fault::FaultInjector* inj = nullptr,
    std::span<attention::FtReport> per_item = {});

namespace testing {
/// Thread-local count of KV tiles the kernel has pad-and-copied into scratch
/// since thread start.  Full tiles are consumed zero-copy, so only a ragged
/// tail tile may ever bump this — the property the zero-copy unit test pins
/// down.  Test-only observability; not part of the serving API.
std::size_t& tiles_materialized() noexcept;
}  // namespace testing

}  // namespace ftt::core
