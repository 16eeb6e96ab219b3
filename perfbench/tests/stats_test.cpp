// Unit tests of the benchmark's statistics on synthetic latency arrays.
#include <gtest/gtest.h>

#include <vector>

#include "stats.hpp"

namespace perfbench {
namespace {

std::vector<double> ramp(std::size_t n) {  // 1, 2, ..., n
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

TEST(Percentile, InterpolatesLinearlyBetweenOrderStatistics) {
  const std::vector<double> v = {4.0, 1.0, 3.0, 2.0};  // unsorted on purpose
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 2.5);
  EXPECT_DOUBLE_EQ(percentile(v, 25.0), 1.75);
  EXPECT_DOUBLE_EQ(percentile(ramp(101), 99.0), 100.0);
}

TEST(Percentile, EmptyAndSingleSample) {
  EXPECT_DOUBLE_EQ(percentile({}, 50.0), 0.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 99.0), 7.0);
  EXPECT_DOUBLE_EQ(median({5.0, 1.0, 3.0}), 3.0);
}

TEST(WindowedPercentile, OneNoisySliceDoesNotMoveTheMedian) {
  std::vector<double> offsets, values;
  for (int i = 0; i < 500; ++i) {
    offsets.push_back(i / 100.0);              // 5 slices of 1 s
    values.push_back(i >= 100 && i < 200 ? 90.0 : 1.0 + (i % 100) / 100.0);
  }
  // Slice 1 is all 90 ms; the other four have p99 = 1.9801.
  EXPECT_NEAR(windowed_percentile(offsets, values, 5.0, 5, 99.0), 1.9801, 1e-9);
  EXPECT_GT(percentile(values, 99.0), 89.0);  // a plain p99 is dominated by it
  EXPECT_DOUBLE_EQ(windowed_percentile({}, {}, 5.0, 5, 50.0), 0.0);
}

TEST(TailPercentile, HighestWithTenSamplesBeyond) {
  EXPECT_DOUBLE_EQ(tail_percentile(10000), 99.9);  // 10 beyond p99.9
  EXPECT_DOUBLE_EQ(tail_percentile(9999), 99.0);
  EXPECT_DOUBLE_EQ(tail_percentile(1000), 99.0);   // 10 beyond p99
  EXPECT_DOUBLE_EQ(tail_percentile(999), 95.0);
  EXPECT_DOUBLE_EQ(tail_percentile(200), 95.0);
  EXPECT_DOUBLE_EQ(tail_percentile(100), 90.0);
  EXPECT_DOUBLE_EQ(tail_percentile(99), 50.0);     // too few for any tail
  EXPECT_DOUBLE_EQ(tail_percentile(0), 50.0);
}

TEST(Knee, HighestPassingRateBeforeFirstFailure) {
  const std::vector<LadderStep> steps = {
      {100.0, 5.0, 0.0, false},
      {300.0, 40.0, 0.009, false},  // passes: under both limits
      {200.0, 10.0, 0.0, false},    // unsorted on purpose
      {400.0, 60.0, 0.0, false},    // p99 over the deadline
      {500.0, 5.0, 0.0, false},     // lucky rung above a failure: ignored
  };
  EXPECT_DOUBLE_EQ(knee_rate(steps, 50.0), 300.0);
}

TEST(Knee, FailedFractionAndBacklogEachStopTheSearch) {
  EXPECT_DOUBLE_EQ(knee_rate({{100.0, 5.0, 0.0, false}, {200.0, 5.0, 0.02, false}}, 50.0),
                   100.0);
  EXPECT_DOUBLE_EQ(knee_rate({{100.0, 5.0, 0.0, false}, {200.0, 5.0, 0.0, true}}, 50.0),
                   100.0);
  EXPECT_DOUBLE_EQ(knee_rate({{100.0, 51.0, 0.0, false}}, 50.0), 0.0);
  EXPECT_DOUBLE_EQ(knee_rate({}, 50.0), 0.0);
}

TEST(Knee, StepIsJudgedByItsMedianSlice) {
  const LadderStep step = summarize_slices(
      300.0, {{0, 80.0, 0.2, true}, {0, 4.0, 0.0, false}, {0, 5.0, 0.001, false}});
  EXPECT_DOUBLE_EQ(step.rate, 300.0);
  EXPECT_DOUBLE_EQ(step.p99_ms, 5.0);
  EXPECT_DOUBLE_EQ(step.failed_frac, 0.001);
  EXPECT_FALSE(step.backlog_grows);  // one growing slice of three
  EXPECT_TRUE(summarize_slices(1.0, {{0, 1, 0, true}, {0, 1, 0, true}, {0, 1, 0, false}})
                  .backlog_grows);
}

TEST(Backlog, FlatQueueDoesNotGrowClimbingQueueDoes) {
  EXPECT_FALSE(backlog_grows({3, 5, 2, 4, 3, 6, 2, 4}, 8.0));
  EXPECT_TRUE(backlog_grows({1, 2, 10, 20, 40, 60, 80, 100}, 8.0));
  EXPECT_FALSE(backlog_grows({1, 2, 3}, 0.0));  // too few samples to judge
}

TEST(Lag, SummarizesScheduleSlip) {
  std::vector<double> lag(100, 0.01);
  lag[99] = 7.0;
  lag[98] = 6.0;
  const LagSummary s = summarize_lag(lag, 2.0);
  EXPECT_DOUBLE_EQ(s.p50_ms, 0.01);
  EXPECT_DOUBLE_EQ(s.max_ms, 7.0);
  EXPECT_NEAR(s.p99_ms, 6.01, 1e-12);  // between the two late sends
  EXPECT_DOUBLE_EQ(s.achieved_rate, 50.0);
  EXPECT_GT(s.p99_ms, kMaxGeneratorLagP99Ms);
  EXPECT_DOUBLE_EQ(summarize_lag({}, 1.0).achieved_rate, 0.0);
}

}  // namespace
}  // namespace perfbench
