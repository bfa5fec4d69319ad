#include "trace.hpp"

#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace servebench {

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

namespace {

std::string span(const std::string& name, double start_s, double end_s,
                 std::size_t tid, const std::string& args) {
  char buf[192];
  std::snprintf(buf, sizeof buf,
                "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                "\"ts\":%.3f,\"dur\":%.3f,\"args\":{",
                name.c_str(), tid, start_s * 1e6, (end_s - start_s) * 1e6);
  return buf + args + "}}";
}

std::string counter(const char* name, double t_s, double value) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "{\"name\":\"%s\",\"ph\":\"C\",\"pid\":1,\"ts\":%.3f,"
                "\"args\":{\"value\":%.17g}}",
                name, t_s * 1e6, value);
  return buf;
}

}  // namespace

void write_trace(const std::string& path, const PassRecord& pass,
                 const std::vector<PoolSample>& pool,
                 const std::string& meta_json,
                 const std::vector<Metric>& layer_metrics) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write trace file " + path);
  f << "{\"metadata\":" << meta_json
    << ",\"layer_metrics\":" << metrics_json(layer_metrics)
    << ",\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  auto emit = [&](const std::string& ev) {
    f << (first ? "" : ",\n") << ev;
    first = false;
  };
  char buf[512];
  for (std::size_t i = 0; i < pass.ticks.size(); ++i) {
    const TickRecord& t = pass.ticks[i];
    std::size_t rows = 0;
    for (const TickEntry& e : t.entries) rows += e.q_len;
    std::snprintf(buf, sizeof buf,
                  "\"tick\":%zu,\"rows\":%zu,\"requests\":%zu,"
                  "\"queued_before\":%zu,\"admitted\":%zu,\"decoded\":%zu,"
                  "\"prefill_rows\":%zu,\"shared_tiles\":%zu,\"retried\":%zu,"
                  "\"faults_injected\":%zu",
                  i, rows, t.entries.size(), t.queued_before,
                  t.stats.admitted, t.stats.decoded, t.stats.prefill_rows,
                  t.stats.shared_tiles, t.stats.retried, t.faults_injected);
    std::string args = buf;
    if (i < pool.size()) {
      std::snprintf(buf, sizeof buf,
                    ",\"pool_tiles_in_use\":%zu,\"kv_bytes\":%zu,"
                    "\"pool_evictions\":%zu",
                    pool[i].tiles_in_use, pool[i].kv_bytes, pool[i].evictions);
      args += buf;
      emit(counter("pool_tiles_in_use", t.end,
                   static_cast<double>(pool[i].tiles_in_use)));
      emit(counter("kv_mb", t.end, static_cast<double>(pool[i].kv_bytes) / 1e6));
    }
    emit(counter("queue_depth", t.start, static_cast<double>(t.queued_before)));
    emit(span("tick", t.start, t.end, 0, args));
  }
  for (std::size_t i = 0; i < pass.requests.size(); ++i) {
    const RequestRecord& r = pass.requests[i];
    if (r.done < 0) continue;
    const std::size_t tid = 1 + i;
    std::snprintf(buf, sizeof buf, "\"request\":%zu,\"engine_id\":%zu", i,
                  r.id);
    const std::string id_args = buf;
    std::snprintf(buf, sizeof buf,
                  ",\"submitted_ms\":%.3f,\"target_context\":%zu",
                  r.submitted * 1e3, r.target_context);
    emit(span("request", r.start, r.done, tid, id_args + buf));
    std::snprintf(buf, sizeof buf, ",\"parent\":\"request %zu\"", i);
    const std::string child = id_args + buf;
    if (r.admitted >= 0) emit(span("queued", r.start, r.admitted, tid, child));
    if (r.admitted >= 0 && r.first_token >= 0) {
      emit(span("prefill", r.admitted, r.first_token, tid, child));
    }
  }
  f << "\n]}\n";
  if (!f) throw std::runtime_error("failed writing trace file " + path);
}

}  // namespace servebench
