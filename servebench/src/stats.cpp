#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <stdexcept>

namespace servebench {

namespace {

std::size_t rank(std::size_t n, double q) noexcept {
  // Nearest rank, 1-based; the epsilon keeps q * n = 90.000000001 from
  // rounding up to the next rank.
  const double r = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(r), 1, n);
}

}  // namespace

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) throw std::invalid_argument("percentile: no samples");
  if (!(q > 0.0 && q <= 1.0)) {
    throw std::invalid_argument("percentile: q must lie in (0, 1]");
  }
  const std::size_t k = rank(samples.size(), q) - 1;
  std::nth_element(samples.begin(), samples.begin() + k, samples.end());
  return samples[k];
}

std::size_t samples_beyond(std::size_t n, double q) noexcept {
  return n == 0 ? 0 : n - rank(n, q);
}

std::optional<double> reportable_percentile(const std::vector<double>& samples,
                                            double q) {
  if (samples.empty()) return std::nullopt;
  if (q != 0.5 && samples_beyond(samples.size(), q) < kMinBeyond) {
    return std::nullopt;
  }
  return percentile(samples, q);
}

std::optional<double> highest_tail(std::size_t n) noexcept {
  for (const double q : {0.999, 0.99, 0.9}) {
    if (samples_beyond(n, q) >= kMinBeyond) return q;
  }
  return std::nullopt;
}

std::size_t samples_needed(double q) noexcept {
  if (q == 0.5) return 1;
  std::size_t n = kMinBeyond;
  while (samples_beyond(n, q) < kMinBeyond) ++n;
  return n;
}

double median(std::vector<double> samples) {
  if (samples.empty()) throw std::invalid_argument("median: no samples");
  const std::size_t mid = samples.size() / 2;
  std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
  if (samples.size() % 2 == 1) return samples[mid];
  const double hi = samples[mid];
  return (*std::max_element(samples.begin(), samples.begin() + mid) + hi) / 2;
}

double mean(const std::vector<double>& samples) noexcept {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

Metric percentile_metric(std::string name, std::string unit,
                         const std::vector<double>& samples, double q) {
  Metric m{std::move(name), std::move(unit),
           reportable_percentile(samples, q), samples.size(), {}};
  if (!m.value) m.note = "needs n>=" + std::to_string(samples_needed(q));
  return m;
}

Metric median_over_passes(std::string name, std::string unit,
                          const std::vector<std::vector<double>>& per_pass,
                          double q) {
  Metric m{std::move(name), std::move(unit), std::nullopt, 0, {}};
  std::vector<double> values;
  bool all = !per_pass.empty();
  for (const auto& samples : per_pass) {
    m.count += samples.size();
    const auto v = reportable_percentile(samples, q);
    if (v) values.push_back(*v);
    all = all && v.has_value();
  }
  if (all) {
    m.value = median(values);
    m.note = "median of " + std::to_string(per_pass.size()) + " passes";
  } else {
    m.note = "needs n>=" + std::to_string(samples_needed(q)) + " per pass";
  }
  return m;
}

std::string format_metric(const Metric& m) {
  char buf[256];
  if (m.value) {
    std::snprintf(buf, sizeof buf, "  %-34s %14.6g %-6s (n=%zu)%s%s",
                  m.name.c_str(), *m.value, m.unit.c_str(), m.count,
                  m.note.empty() ? "" : " ", m.note.c_str());
  } else {
    std::snprintf(buf, sizeof buf, "  %-34s %14s %-6s (n=%zu)%s%s",
                  m.name.c_str(), "absent", m.unit.c_str(), m.count,
                  m.note.empty() ? "" : " ", m.note.c_str());
  }
  return buf;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  bool first = true;
  for (const Metric& m : metrics) {
    if (!m.value) continue;
    char buf[320];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", m.name.c_str(), *m.value, m.unit.c_str());
    out += buf;
    first = false;
  }
  return out + "}";
}

}  // namespace servebench
