#pragma once
// Sealed KV tile formats: the per-(layer, head) byte layouts serve::TilePool
// keeps in its slabs, and the seal / image / quantize / scrub helpers that
// build and verify them.
//
// A tile is 64 context rows (the strided-ABFT checksum footprint,
// abft::StridedAbft::kTile) of one head's K and V.  Full tiles are immutable
// once written, so the pool memoizes their four strided checksum encodings
// (K row checksums c1/c2, V column checksums c1/c2) the moment the tile
// seals, and never again: clean decode steps consume the sealed encodings
// instead of re-deriving all four per token, dropping the per-token encode
// cost from O(context) to O(tail).  The memo costs 4 * 64 * stride halves
// per tile per head on top of the 2 * 64 * dim tile pair (+25% at stride 8,
// dim 64).

#include <cstddef>
#include <cstdint>

#include "numeric/fp16.hpp"

namespace ftt::serve {

namespace detail {
/// Encode the four sealed-tile checksum blocks of one 64 x dim K/V tile
/// pair into `out`, laid out [kc1 (s x dim) | kc2 (s x dim) | vc1 (64 x s)
/// | vc2 (64 x s)] — 2*s*dim + 2*64*s halves.  Exactly the encodes the
/// decode kernel would run per call (no injector: memos are built outside
/// any fault campaign), so the sealed bits equal a fresh encode bit for
/// bit.
void encode_sealed_tile(const numeric::Half* k_tile,
                        const numeric::Half* v_tile, std::size_t dim, int s,
                        numeric::Half* out);

/// Number of halves in one sealed tile's pre-transposed fp16 image (the
/// core::ImagePolicy::kF16T layout): only the K-side operands need
/// re-laying-out, and they stay at half width —
///   [K^T (dim x 64) | Kc1^T (dim x s) | Kc2^T (dim x s)]
/// == 64*dim + 2*s*dim halves (~0.5x the tile pair).  The V operands have
/// no image: the slab's V tile (64 x dim) and sealed column checksums
/// (64 x s) are already row-major streams for the fused fp16-operand axpy.
[[nodiscard]] std::size_t f16t_image_halves(std::size_t dim, int s) noexcept;

/// Build the kF16T image of one sealed tile from its fp16 K storage and its
/// sealed encoding block (encode_sealed_tile layout) into `out`
/// (f16t_image_halves(dim, s) halves).  Pure data movement — transposition
/// of stored Half bits — so decode over the image (which widens in
/// registers, exactly) is bit-identical to the widen-per-call path.
void build_f16t_image(const numeric::Half* k_tile,
                      const numeric::Half* enc_block, std::size_t dim, int s,
                      numeric::Half* out);

/// Byte layout of one (layer, head) block of an int8-format KV tile — the
/// second, coexisting tile format (core::TileFmt::kI8).  One block packs
/// everything the decode kernel and the scrubber need:
///
///   [ scales: 6 floats (K, then V, 3 TMR copies each)
///   | ienc:  int32 [kc1 (s x 64, over K^T) | kc2 | vc1 (64 x s) | vc2]
///   | K^T payload: dim x 64 int8 | V payload: 64 x dim int8
///   | henc:  Half  [Kc1^T (dim x s) | Kc2^T | Vc1 (64 x s) | Vc2] ]
///
/// K-side operands are stored *k-major* (pre-transposed): the score GEMMs
/// consume them in exactly this layout, so the fused dequantizing kernels
/// (numeric::gemm_f32_nn_i8) stream the int8 payload directly with zero
/// per-tile pack or dequantize-to-scratch pass — the int8 analogue of the
/// fp16 format's pre-transposed kF16T image.  V stays row-major because
/// GEMM II's axpy walks V rows.
///
/// The int32 encodings are the at-rest redundancy: integer sums of the int8
/// payload as stored (abft/int8_checksums.hpp; K's run over the k-major
/// array), verified by EQUALITY — exact fault location and repair with zero
/// threshold.  The Half encodings are the decode-time memo: the fp16
/// strided encodings of the exactly-dequantized payload, bit-equal to the
/// fresh encode the kernel would compute (K-side stored transposed, like
/// the kF16T image's Kc^T blocks), so a clean tick streams payload + henc
/// and never touches the int32 block.  The per-operand scale is a power of
/// two (numeric::choose_i8_scale), so dequantization is exact and both
/// encoding families describe the same tile; the scales themselves are
/// outside both checksum families, hence the 3-copy TMR.  Alignment: the
/// float/int32 regions lead and `bytes` is rounded to a multiple of 4, so
/// an array of blocks keeps every region naturally aligned.
struct I8TileLayout {
  std::size_t dim = 0;
  std::size_t s = 0;        ///< checksum stride the encodings use
  std::size_t payload = 0;  ///< int8 elements per operand (64 * dim)
  std::size_t kcn = 0;      ///< Halfs in one K henc block (s * dim)
  std::size_t kcni = 0;     ///< int32s in one K ienc block (s * 64, over K^T)
  std::size_t vcn = 0;      ///< elements in one V checksum block (64 * s)
  std::size_t scale_off = 0, ienc_off = 0, k_off = 0, v_off = 0, henc_off = 0;
  std::size_t bytes = 0;  ///< total block bytes (multiple of 4)
};
[[nodiscard]] I8TileLayout i8_tile_layout(std::size_t dim, int s) noexcept;

// Typed region accessors over one block (const and mutable).
[[nodiscard]] inline float* i8_scales(std::uint8_t* b,
                                      const I8TileLayout& L) noexcept {
  return reinterpret_cast<float*>(b + L.scale_off);
}
[[nodiscard]] inline const float* i8_scales(const std::uint8_t* b,
                                            const I8TileLayout& L) noexcept {
  return reinterpret_cast<const float*>(b + L.scale_off);
}
[[nodiscard]] inline std::int32_t* i8_ienc(std::uint8_t* b,
                                           const I8TileLayout& L) noexcept {
  return reinterpret_cast<std::int32_t*>(b + L.ienc_off);
}
[[nodiscard]] inline const std::int32_t* i8_ienc(
    const std::uint8_t* b, const I8TileLayout& L) noexcept {
  return reinterpret_cast<const std::int32_t*>(b + L.ienc_off);
}
[[nodiscard]] inline std::int8_t* i8_k(std::uint8_t* b,
                                       const I8TileLayout& L) noexcept {
  return reinterpret_cast<std::int8_t*>(b + L.k_off);
}
[[nodiscard]] inline const std::int8_t* i8_k(const std::uint8_t* b,
                                             const I8TileLayout& L) noexcept {
  return reinterpret_cast<const std::int8_t*>(b + L.k_off);
}
[[nodiscard]] inline std::int8_t* i8_v(std::uint8_t* b,
                                       const I8TileLayout& L) noexcept {
  return reinterpret_cast<std::int8_t*>(b + L.v_off);
}
[[nodiscard]] inline const std::int8_t* i8_v(const std::uint8_t* b,
                                             const I8TileLayout& L) noexcept {
  return reinterpret_cast<const std::int8_t*>(b + L.v_off);
}
[[nodiscard]] inline numeric::Half* i8_henc(std::uint8_t* b,
                                            const I8TileLayout& L) noexcept {
  return reinterpret_cast<numeric::Half*>(b + L.henc_off);
}
[[nodiscard]] inline const numeric::Half* i8_henc(
    const std::uint8_t* b, const I8TileLayout& L) noexcept {
  return reinterpret_cast<const numeric::Half*>(b + L.henc_off);
}

/// Quantize one sealed 64 x dim fp16 K/V tile pair into an i8 block:
/// choose the per-operand power-of-two scales, quantize the payload, then
/// derive BOTH encoding families from the result — the Half encodings from
/// the exactly-dequantized image (bit-equal to the fresh encode a decode
/// call would run over that image) and the int32 encodings from the int8
/// payload — and write the TMR scale copies.  The block is fully
/// overwritten; no zeroing is required beforehand.
void quantize_sealed_tile(const numeric::Half* k_tile,
                          const numeric::Half* v_tile, std::size_t dim, int s,
                          std::uint8_t* block);

/// Outcome of verifying one i8 block against its own redundancy.
enum class I8ScrubResult { kClean, kRepaired, kUnrepairable };

/// The i8 arm of the KV scrubber: majority-vote the TMR scale copies, run
/// the exact integer verify/correct over both payloads (equality, zero
/// threshold — abft::verify_correct_*_i8), then recompute the Half
/// encodings from the repaired, dequantized payload and rewrite them on
/// mismatch.  Repairs happen in place; kUnrepairable means >= 2 faults in
/// one residue class (or a three-way scale disagreement) and the caller
/// must drop the tile.
[[nodiscard]] I8ScrubResult scrub_i8_tile(std::uint8_t* block,
                                          std::size_t dim, int s);
}  // namespace detail

}  // namespace ftt::serve
