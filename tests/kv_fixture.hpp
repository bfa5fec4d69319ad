#pragma once
// Single-request KV store for kernel-level tests: a one-layer, unbounded
// serve::TilePool plus one serve::PagedKvCache over it — the engine's store.

#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "serve/tile_pool.hpp"

namespace kvtest {

using ftt::numeric::Half;

struct PagedKv {
  ftt::serve::TilePool pool;
  ftt::serve::PagedKvCache cache;

  PagedKv(std::size_t heads, std::size_t dim,
          int enc_stride = ftt::abft::StridedAbft::kDefaultStride,
          ftt::core::ImagePolicy images = ftt::core::ImagePolicy::kNone,
          ftt::core::TileFmt fmt = ftt::core::TileFmt::kF16)
      : pool({1, heads, dim, 0, enc_stride, images}), cache(pool, fmt) {}

  /// Append `rows` tokens of head-major heads*dim halves each.
  void append(std::span<const Half> k, std::span<const Half> v,
              std::size_t rows = 1) {
    (void)cache.ensure_capacity(cache.length() + rows);  // unbounded pool
    cache.append_chunk(0, k, v, rows);
  }
  ftt::core::KvSlice slice(std::size_t head) const {
    return cache.slice(0, head);
  }
};

/// Append `tokens` seeded-random tokens, one at a time.
inline void fill_cache(PagedKv& kv, std::size_t tokens, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<float> dist(0.0f, 1.0f);
  std::vector<Half> k(kv.pool.heads() * kv.pool.dim()), v(k.size());
  for (std::size_t t = 0; t < tokens; ++t) {
    for (std::size_t i = 0; i < k.size(); ++i) {
      k[i] = Half(dist(rng));
      v[i] = Half(dist(rng));
    }
    kv.append(k, v);
  }
}

}  // namespace kvtest
