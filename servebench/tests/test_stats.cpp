// Statistics rules of the benchmark's reports.
#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>

#include "stats.hpp"

namespace sb = servebench;

namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

}  // namespace

TEST(Percentile, NearestRank) {
  const auto v = one_to(100);
  EXPECT_EQ(sb::percentile(v, 0.5), 50.0);
  EXPECT_EQ(sb::percentile(v, 0.9), 90.0);
  EXPECT_EQ(sb::percentile(v, 0.99), 99.0);
  EXPECT_EQ(sb::percentile(v, 1.0), 100.0);
  EXPECT_EQ(sb::percentile({7.0}, 0.5), 7.0);
  EXPECT_EQ(sb::median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(sb::median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

TEST(Percentile, RejectsEmptyAndBadQuantile) {
  EXPECT_THROW((void)sb::percentile({}, 0.5), std::invalid_argument);
  EXPECT_THROW((void)sb::percentile({1.0}, 0.0), std::invalid_argument);
  EXPECT_THROW((void)sb::percentile({1.0}, 1.5), std::invalid_argument);
}

TEST(Percentile, TailNeedsTenSamplesBeyondIt) {
  EXPECT_EQ(sb::samples_beyond(100, 0.9), 10u);
  EXPECT_EQ(sb::samples_beyond(99, 0.9), 9u);
  EXPECT_TRUE(sb::reportable_percentile(one_to(100), 0.9).has_value());
  EXPECT_FALSE(sb::reportable_percentile(one_to(99), 0.9).has_value());
  EXPECT_TRUE(sb::reportable_percentile(one_to(1000), 0.99).has_value());
  EXPECT_FALSE(sb::reportable_percentile(one_to(999), 0.99).has_value());
  EXPECT_EQ(sb::samples_needed(0.9), 100u);
  EXPECT_EQ(sb::samples_needed(0.99), 1000u);
  // The median needs only one sample.
  EXPECT_TRUE(sb::reportable_percentile({4.0}, 0.5).has_value());
  EXPECT_FALSE(sb::reportable_percentile({}, 0.5).has_value());
}

TEST(Percentile, HighestTailWithTenBeyond) {
  EXPECT_FALSE(sb::highest_tail(99).has_value());
  EXPECT_EQ(*sb::highest_tail(100), 0.9);
  EXPECT_EQ(*sb::highest_tail(999), 0.9);
  EXPECT_EQ(*sb::highest_tail(1000), 0.99);
  EXPECT_EQ(*sb::highest_tail(10000), 0.999);
}

TEST(Metric, AbsentWithCountWhenSamplesLack) {
  // long_doc_decode serves 16 requests per pass: too few for a TTFT p90.
  const auto m = sb::percentile_metric("ttft_p90_ms", "ms", one_to(16), 0.9);
  EXPECT_FALSE(m.value.has_value());
  EXPECT_EQ(m.count, 16u);
  const std::string line = sb::format_metric(m);
  EXPECT_NE(line.find("ttft_p90_ms"), std::string::npos);
  EXPECT_NE(line.find("absent"), std::string::npos);
  EXPECT_NE(line.find("n=16"), std::string::npos);
  EXPECT_NE(line.find("needs n>=100"), std::string::npos);
  // The result JSON leaves it out rather than inventing a value.
  EXPECT_EQ(sb::metrics_json({m}), "{}");
}

TEST(Metric, JsonCarriesValueAndUnit) {
  const sb::Metric m{"itl_p50_ms", "ms", 1.25, 3, {}};
  EXPECT_EQ(sb::metrics_json({m}),
            "{\"itl_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}");
}

TEST(Metric, MedianOverPassesIgnoresOneSlowPass) {
  const std::vector<std::vector<double>> passes = {
      one_to(100), std::vector<double>(100, 1e6), one_to(100)};
  const auto m = sb::median_over_passes("itl_p90_ms", "ms", passes, 0.9);
  ASSERT_TRUE(m.value.has_value());
  EXPECT_EQ(*m.value, 90.0);
  EXPECT_EQ(m.count, 300u);
  // One pass short of samples makes the whole metric absent.
  const auto short_pass =
      sb::median_over_passes("itl_p90_ms", "ms", {one_to(100), one_to(50)}, 0.9);
  EXPECT_FALSE(short_pass.value.has_value());
  EXPECT_EQ(short_pass.count, 150u);
}
