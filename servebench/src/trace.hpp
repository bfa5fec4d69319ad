#pragma once
// Span output of a traced run, in the Chrome trace-event JSON format (load
// it in Perfetto or chrome://tracing).  Spans are rebuilt after the pass
// from the loop's records — nothing is written while the engine runs.
//
//   * tid 0: one "tick" span per step(), args = rows, requests, StepStats
//     counts (admitted, decoded, prefill_rows, shared_tiles, retried,
//     faults_injected) and the pool counters sampled after the step;
//   * tid 1 + i: request i's "request" span (due or submit -> completion)
//     with its "queued" (-> admission) and "prefill" (-> first token)
//     children; args carry the request index and engine id, and each child
//     names its parent span;
//   * "C" counter events: pool tiles in use, KV MB and queue depth per tick.

#include <string>
#include <vector>

#include "loop.hpp"
#include "stats.hpp"

namespace servebench {

/// Pool counters sampled right after a step() (traced passes only).
struct PoolSample {
  std::size_t tiles_in_use = 0;
  std::size_t kv_bytes = 0;
  std::size_t evictions = 0;  ///< lifetime, cumulative
};

/// Writes `pass` as a trace-event file at `path`, with `meta` (already
/// JSON-encoded key/values) and the per-layer metrics as file metadata.
/// Throws std::runtime_error when the file cannot be written.
void write_trace(const std::string& path, const PassRecord& pass,
                 const std::vector<PoolSample>& pool,
                 const std::string& meta_json,
                 const std::vector<Metric>& layer_metrics);

/// JSON string literal with quotes, backslashes and control bytes escaped.
[[nodiscard]] std::string json_str(const std::string& s);

}  // namespace servebench
