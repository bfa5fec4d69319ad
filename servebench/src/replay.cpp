#include "replay.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/decode.hpp"
#include "serve/tile_pool.hpp"
#include "tensor/random.hpp"

namespace servebench {

namespace {

using ftt::tensor::MatrixF;
using ftt::tensor::MatrixH;
using ftt::transformer::LinearProtect;

template <class F>
double time_ms(F&& f) {
  const auto a = Clock::now();
  f();
  return std::chrono::duration<double, std::milli>(Clock::now() - a).count();
}

/// KV fleet over one TilePool: per-request caches grown to the contexts a
/// tick needs, plus one fully sealed prefix the sharers attach.
class KvFleet {
 public:
  KvFleet(const ftt::transformer::Model& model,
          const ftt::serve::EngineOptions& opt, std::size_t prefix_tiles,
          std::uint64_t seed)
      : layers_(model.config().layers),
        hidden_(model.config().hidden),
        pool_(ftt::serve::TilePoolOptions{
            model.config().layers, model.config().heads,
            model.config().head_dim(), 0, opt.efta.stride, opt.images}),
        k_(kTile, hidden_),
        v_(kTile, hidden_) {
    ftt::tensor::fill_normal(k_, seed, 0.0f, 0.5f);
    ftt::tensor::fill_normal(v_, seed + 1, 0.0f, 0.5f);
    if (prefix_tiles > 0) {
      prefix_ = std::make_unique<ftt::serve::PagedKvCache>(
          pool_, ftt::core::TileFmt::kF16);
      grow(*prefix_, prefix_tiles * kTile);
    }
  }

  /// Make request `r`'s cache hold `before` rows with `shared` prefix tiles
  /// attached, then room for `q_len` more.
  ftt::serve::PagedKvCache& prepare(std::size_t r, std::size_t before,
                                    std::size_t shared, std::size_t q_len) {
    auto& slot = caches_[r];
    if (slot && (slot->length() > before || slot->shared_tiles() != shared)) {
      slot.reset();
    }
    if (!slot) {
      slot = std::make_unique<ftt::serve::PagedKvCache>(
          pool_, ftt::core::TileFmt::kF16);
      for (std::size_t t = 0; t < shared; ++t) {
        const auto id = prefix_->block_table().at(t);
        pool_.retain(id);
        slot->attach_shared(id);
      }
    }
    grow(*slot, before);
    if (!slot->ensure_capacity(before + q_len)) {
      throw std::runtime_error("replay: KV pool exhausted");
    }
    return *slot;
  }

  void append(ftt::serve::PagedKvCache& c, std::size_t layer,
              std::size_t rows) {
    c.append_chunk(layer, {k_.data(), rows * hidden_},
                   {v_.data(), rows * hidden_}, rows);
  }

  void release(std::size_t r) { caches_.erase(r); }

 private:
  static constexpr std::size_t kTile = 64;

  /// Append rows up to `rows`, in chunks that never cross a tile boundary.
  void grow(ftt::serve::PagedKvCache& c, std::size_t rows) {
    if (!c.ensure_capacity(rows)) {
      throw std::runtime_error("replay: KV pool exhausted");
    }
    while (c.length() < rows) {
      const std::size_t n =
          std::min(kTile - c.length() % kTile, rows - c.length());
      for (std::size_t l = 0; l < layers_; ++l) append(c, l, n);
    }
  }

  std::size_t layers_, hidden_;
  ftt::serve::TilePool pool_;
  MatrixH k_, v_;
  std::unique_ptr<ftt::serve::PagedKvCache> prefix_;
  std::map<std::size_t, std::unique_ptr<ftt::serve::PagedKvCache>> caches_;
};

/// Computed FLOPs of one (request, head) query block of q_len rows ending
/// at context `context`: 2 * d per score and 2 * d per output element over
/// the causal rows.
double attention_flop(std::size_t q_len, std::size_t context,
                      std::size_t dim) noexcept {
  const double q = static_cast<double>(q_len);
  const double before = static_cast<double>(context - q_len);
  return 4.0 * static_cast<double>(dim) * (q * before + q * (q + 1.0) / 2.0);
}

}  // namespace

ReplayResult replay_pass(const ftt::transformer::Model& model,
                         const ftt::serve::EngineOptions& opt,
                         const PassRecord& pass, std::size_t max_ticks,
                         std::uint64_t seed) {
  const auto& cfg = model.config();
  const std::size_t hidden = cfg.hidden, heads = cfg.heads;
  const std::size_t dim = cfg.head_dim();
  const auto mode = opt.protect_linear ? LinearProtect::kStridedAbft
                                       : LinearProtect::kNone;

  // Ticks that computed anything, evenly thinned to max_ticks.
  std::vector<std::size_t> busy;
  std::size_t prefix_tiles = 0;
  std::vector<std::size_t> last_tick(pass.requests.size(), 0);
  for (std::size_t i = 0; i < pass.ticks.size(); ++i) {
    if (pass.ticks[i].entries.empty()) continue;
    busy.push_back(i);
    for (const TickEntry& e : pass.ticks[i].entries) {
      prefix_tiles = std::max(prefix_tiles, e.shared_tiles);
      last_tick[e.request] = i;
    }
  }
  std::vector<std::size_t> picked;
  const std::size_t n = std::min(busy.size(), max_ticks);
  for (std::size_t k = 0; k < n; ++k) picked.push_back(busy[k * busy.size() / n]);

  KvFleet fleet(model, opt, prefix_tiles, seed);
  std::size_t max_rows = 1;
  for (const std::size_t i : picked) {
    std::size_t t = 0;
    for (const TickEntry& e : pass.ticks[i].entries) t += e.q_len;
    max_rows = std::max(max_rows, t);
  }
  MatrixF source(max_rows, hidden);
  ftt::tensor::fill_normal(source, seed + 2);
  MatrixH qsource(max_rows, hidden);
  ftt::tensor::fill_normal(qsource, seed + 3, 0.0f, 0.5f);

  ReplayResult res;
  std::vector<ftt::core::DecodeWorkItem> items;
  std::vector<std::size_t> live;  // requests holding a cache
  for (std::size_t pi = 0; pi < picked.size(); ++pi) {
    const TickRecord& tick = pass.ticks[picked[pi]];
    // Requests that finished before this tick hold no KV in the engine.
    std::erase_if(live, [&](std::size_t r) {
      if (last_tick[r] >= picked[pi]) return false;
      fleet.release(r);
      return true;
    });

    std::size_t T = 0;
    for (const TickEntry& e : tick.entries) T += e.q_len;
    MatrixF X(T, hidden);
    std::copy(source.data(), source.data() + X.size(), X.data());

    // --- linears, LayerNorms: protected, then unprotected --------------
    MatrixF h(T, hidden), out(T, hidden), qkv(T, hidden);
    for (const auto& blk : model.blocks()) {
      h = X;
      res.layernorm_ms += time_ms([&] { blk.ln1().forward(h); });
      for (const auto* lin : {&blk.wq(), &blk.wk(), &blk.wv(), &blk.wo()}) {
        res.proj_ms += time_ms([&] { (void)lin->forward(h, qkv, mode); });
        res.proj_plain_ms +=
            time_ms([&] { (void)lin->forward(h, qkv, LinearProtect::kNone); });
      }
      h = X;
      res.layernorm_ms += time_ms([&] { blk.ln2().forward(h); });
      res.ffn_ms += time_ms(
          [&] { (void)blk.ffn().forward(h, out, opt.protect_linear); });
      res.ffn_plain_ms +=
          time_ms([&] { (void)blk.ffn().forward(h, out, false); });
    }
    h = X;
    res.layernorm_ms += time_ms([&] { model.final_ln().forward(h); });
    res.linear_flop += 2.0 * static_cast<double>(T) *
                       static_cast<double>(cfg.layers) *
                       static_cast<double>(4 * hidden * hidden +
                                           2 * hidden * cfg.ffn_inner);

    // --- attention over the paged KV fleet ------------------------------
    std::vector<ftt::serve::PagedKvCache*> caches;
    for (const TickEntry& e : tick.entries) {
      if (std::find(live.begin(), live.end(), e.request) == live.end()) {
        live.push_back(e.request);
      }
      caches.push_back(&fleet.prepare(e.request, e.context - e.q_len,
                                      e.shared_tiles, e.q_len));
      res.attention_flop += static_cast<double>(heads * cfg.layers) *
                            attention_flop(e.q_len, e.context, dim);
    }
    MatrixF attn(T, hidden);
    for (std::size_t l = 0; l < cfg.layers; ++l) {
      items.clear();
      std::size_t row0 = 0;
      for (std::size_t k = 0; k < tick.entries.size(); ++k) {
        const std::size_t q = tick.entries[k].q_len;
        fleet.append(*caches[k], l, q);
        for (std::size_t hd = 0; hd < heads; ++hd) {
          items.push_back(ftt::core::DecodeWorkItem{
              caches[k]->slice(l, hd), &qsource(row0, hd * dim),
              &attn(row0, hd * dim), q, hidden, hidden});
        }
        row0 += q;
      }
      res.attention_ms += time_ms(
          [&] { (void)ftt::core::efta_decode_batch(items, opt.efta); });
    }
    res.tick_ms += (tick.end - tick.start) * 1e3;
    ++res.ticks;
  }
  return res;
}

}  // namespace servebench
