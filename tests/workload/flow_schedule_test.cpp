#include "workload/flow_schedule.h"

#include <gtest/gtest.h>

namespace halfback::workload {
namespace {

using namespace halfback::sim::literals;

TEST(FlowScheduleTest, ArrivalsWithinWindow) {
  sim::Random rng{1};
  ScheduleConfig config;
  config.duration = 60_s;
  auto schedule = make_schedule(FlowSizeDist::fixed(100'000), config, rng);
  ASSERT_FALSE(schedule.empty());
  for (const FlowArrival& f : schedule) {
    EXPECT_GE(f.at, 0_s);
    EXPECT_LT(f.at, 60_s);
    EXPECT_EQ(f.bytes, 100'000u);
  }
}

TEST(FlowScheduleTest, ArrivalsAreSorted) {
  sim::Random rng{2};
  ScheduleConfig config;
  auto schedule = make_schedule(FlowSizeDist::fixed(100'000), config, rng);
  for (std::size_t i = 1; i < schedule.size(); ++i) {
    EXPECT_GE(schedule[i].at, schedule[i - 1].at);
  }
}

TEST(FlowScheduleTest, OfferedLoadMatchesTarget) {
  sim::Random rng{3};
  ScheduleConfig config;
  config.target_utilization = 0.5;
  config.duration = 600_s;  // long window for tight statistics
  auto schedule = make_schedule(FlowSizeDist::fixed(100'000), config, rng);
  EXPECT_NEAR(offered_utilization(schedule, config), 0.5, 0.05);
}

TEST(FlowScheduleTest, UtilizationScalesArrivalCount) {
  ScheduleConfig lo_config;
  lo_config.target_utilization = 0.1;
  lo_config.duration = 120_s;
  ScheduleConfig hi_config = lo_config;
  hi_config.target_utilization = 0.8;
  sim::Random rng_lo{4};
  sim::Random rng_hi{4};
  auto lo = make_schedule(FlowSizeDist::fixed(100'000), lo_config, rng_lo);
  auto hi = make_schedule(FlowSizeDist::fixed(100'000), hi_config, rng_hi);
  EXPECT_NEAR(static_cast<double>(hi.size()) / static_cast<double>(lo.size()), 8.0,
              1.5);
}

TEST(FlowScheduleTest, DeterministicGivenSeed) {
  ScheduleConfig config;
  sim::Random a{7};
  sim::Random b{7};
  auto s1 = make_schedule(FlowSizeDist::internet(), config, a);
  auto s2 = make_schedule(FlowSizeDist::internet(), config, b);
  ASSERT_EQ(s1.size(), s2.size());
  for (std::size_t i = 0; i < s1.size(); ++i) {
    EXPECT_EQ(s1[i].at, s2[i].at);
    EXPECT_EQ(s1[i].bytes, s2[i].bytes);
  }
}

TEST(FlowScheduleTest, InterarrivalsLookExponential) {
  sim::Random rng{8};
  ScheduleConfig config;
  config.target_utilization = 0.5;
  config.duration = 600_s;
  auto schedule = make_schedule(FlowSizeDist::fixed(100'000), config, rng);
  ASSERT_GT(schedule.size(), 100u);
  // Coefficient of variation of exponential interarrivals is 1.
  std::vector<double> gaps;
  for (std::size_t i = 1; i < schedule.size(); ++i) {
    gaps.push_back((schedule[i].at - schedule[i - 1].at).to_seconds());
  }
  double mean = 0;
  for (double g : gaps) mean += g;
  mean /= static_cast<double>(gaps.size());
  double var = 0;
  for (double g : gaps) var += (g - mean) * (g - mean);
  var /= static_cast<double>(gaps.size());
  EXPECT_NEAR(std::sqrt(var) / mean, 1.0, 0.15);
}

TEST(FlowScheduleTest, RejectsNonpositiveUtilization) {
  sim::Random rng{9};
  ScheduleConfig config;
  config.target_utilization = 0.0;
  EXPECT_THROW(make_schedule(FlowSizeDist::fixed(1000), config, rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace halfback::workload
