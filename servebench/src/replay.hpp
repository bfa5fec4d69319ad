#pragma once
// Per-layer replay: drive a recorded pass's tick shapes through the public
// calls of the layers under serve and time each call.
//
// For every replayed tick the stacked row count T goes through each block's
// ln1/ln2, wq/wk/wv/wo and ffn — once at the engine's protection setting
// and once unprotected — and each (request, q_len, context) entry becomes
// one DecodeWorkItem per head in a core::efta_decode_batch call per layer,
// over a serve::PagedKvCache fleet in a TilePool configured like the
// engine's.  Requests that attached a shared prefix attach the same number
// of sealed prefix tiles here.  K/V appends and seals are not timed: they
// are serve-layer work, part of what the tick spends outside the layers.

#include <cstddef>
#include <cstdint>

#include "loop.hpp"
#include "serve/engine.hpp"
#include "transformer/model.hpp"

namespace servebench {

struct ReplayResult {
  std::size_t ticks = 0;       ///< ticks replayed
  double tick_ms = 0.0;        ///< engine time of those ticks (recorded)
  double layernorm_ms = 0.0;   ///< ln1 + ln2 per block, plus the final LN
  double proj_ms = 0.0;        ///< wq + wk + wv + wo, protected
  double ffn_ms = 0.0;         ///< FeedForward, protected
  double proj_plain_ms = 0.0;  ///< the same projections unprotected
  double ffn_plain_ms = 0.0;   ///< the same FFN unprotected
  double attention_ms = 0.0;   ///< efta_decode_batch, every layer
  double linear_flop = 0.0;    ///< computed payload FLOPs of proj + ffn
  double attention_flop = 0.0; ///< computed QK^T + PV FLOPs
};

/// Replays at most `max_ticks` ticks of `pass`, evenly spaced.  Sums are
/// over the replayed ticks.
[[nodiscard]] ReplayResult replay_pass(const ftt::transformer::Model& model,
                                       const ftt::serve::EngineOptions& opt,
                                       const PassRecord& pass,
                                       std::size_t max_ticks,
                                       std::uint64_t seed);

}  // namespace servebench
