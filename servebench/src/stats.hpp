#pragma once
// Sample statistics and metric reporting for the serving benchmark.
//
// Timings are reported as a median plus a tail percentile.  A tail
// percentile is printed only when at least kMinBeyond samples lie above it
// (nearest-rank definition), so a tail is never read off a handful of
// samples; otherwise the metric prints as absent together with its sample
// count.

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace servebench {

/// Samples that must lie strictly above a tail percentile for it to count.
inline constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank percentile: the ceil(q * n)-th smallest sample, q in (0, 1].
/// Throws std::invalid_argument on an empty sample or q outside (0, 1].
[[nodiscard]] double percentile(std::vector<double> samples, double q);

/// Samples above the nearest-rank percentile q of n samples.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double q) noexcept;

/// percentile() when at least kMinBeyond samples lie beyond it, else empty.
/// The median (q = 0.5) is exempt from the rule: it only needs one sample.
[[nodiscard]] std::optional<double> reportable_percentile(
    const std::vector<double>& samples, double q);

/// Highest of {0.999, 0.99, 0.9} with at least kMinBeyond samples beyond
/// it, or empty when even p90 lacks them.
[[nodiscard]] std::optional<double> highest_tail(std::size_t n) noexcept;

/// Middle value; the mean of the two middle values for an even count.
[[nodiscard]] double median(std::vector<double> samples);
[[nodiscard]] double mean(const std::vector<double>& samples) noexcept;

/// One named number of a run.  `value` is empty when the run lacked the
/// samples to report it; `count` is the number of samples behind it.
struct Metric {
  std::string name;
  std::string unit;
  std::optional<double> value;
  std::size_t count = 0;
  std::string note;  ///< e.g. "computed" for FLOP and byte counts
};

/// A percentile metric over `samples` under the kMinBeyond rule.
[[nodiscard]] Metric percentile_metric(std::string name, std::string unit,
                                       const std::vector<double>& samples,
                                       double q);

/// The median over passes of each pass's percentile q, so one slow pass
/// cannot move the result.  Absent unless every pass can report q; the
/// count is the pooled sample count.
[[nodiscard]] Metric median_over_passes(
    std::string name, std::string unit,
    const std::vector<std::vector<double>>& per_pass, double q);

/// "name  value unit  (n=count)" or "name  absent  (n=count, needs >=N)".
[[nodiscard]] std::string format_metric(const Metric& m);

/// `{"name": {"value": v, "unit": "u"}, ...}` over the metrics with values.
/// Absent metrics are left out; the caller decides whether that is fatal.
[[nodiscard]] std::string metrics_json(const std::vector<Metric>& metrics);

/// Minimum sample count at which percentile q becomes reportable.
[[nodiscard]] std::size_t samples_needed(double q) noexcept;

}  // namespace servebench
