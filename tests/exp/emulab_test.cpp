#include "exp/emulab.h"

#include <gtest/gtest.h>

namespace halfback::exp {
namespace {

using namespace halfback::sim::literals;

std::vector<workload::FlowArrival> fixed_schedule(int count, sim::Time gap,
                                                  std::uint64_t bytes) {
  std::vector<workload::FlowArrival> schedule;
  for (int i = 0; i < count; ++i) {
    schedule.push_back({gap * static_cast<double>(i), bytes});
  }
  return schedule;
}

FlowResult hand_built_flow(FlowRole role, bool finished, sim::Time fct,
                           std::uint32_t normal_retx, std::uint32_t proactive_retx,
                           std::uint32_t timeouts) {
  FlowResult f;
  f.role = role;
  f.finished = finished;
  f.record.start_time = 50_ms;
  if (finished) {
    f.record.completion_time = f.record.start_time + fct;
  } else {
    f.censored_fct = fct;  // record.fct() stays meaningless (negative)
  }
  f.record.normal_retx = normal_retx;
  f.record.proactive_retx = proactive_retx;
  f.record.timeouts = timeouts;
  return f;
}

TEST(RunResultTest, RoleStatsCountsCensoredFlowsAndOnlyItsRole) {
  RunResult run;
  run.flows.push_back(hand_built_flow(FlowRole::primary, true, 100_ms, 1, 4, 0));
  run.flows.push_back(hand_built_flow(FlowRole::background, true, 5_s, 50, 50, 9));
  run.flows.push_back(hand_built_flow(FlowRole::primary, false, 800_ms, 2, 0, 2));
  run.flows.push_back(hand_built_flow(FlowRole::primary, true, 300_ms, 3, 8, 1));
  const RoleStats primary = run.role_stats(FlowRole::primary);
  EXPECT_EQ(primary.unfinished, 1u);
  // FCTs {100, 300, 800 censored}: without the censored flow the mean and
  // median would both be 200 ms; with the background flow, far higher.
  EXPECT_DOUBLE_EQ(primary.mean_fct_ms, 400.0);
  EXPECT_DOUBLE_EQ(primary.median_fct_ms, 300.0);
  EXPECT_DOUBLE_EQ(primary.mean_normal_retx, 2.0);
  EXPECT_DOUBLE_EQ(primary.mean_proactive_retx, 4.0);
  EXPECT_DOUBLE_EQ(primary.mean_timeouts, 1.0);

  const RoleStats background = run.role_stats(FlowRole::background);
  EXPECT_EQ(background.unfinished, 0u);
  EXPECT_DOUBLE_EQ(background.mean_fct_ms, 5000.0);
  EXPECT_DOUBLE_EQ(background.median_fct_ms, 5000.0);
  EXPECT_DOUBLE_EQ(background.mean_normal_retx, 50.0);
  EXPECT_DOUBLE_EQ(background.mean_timeouts, 9.0);

  const RoleStats none = run.role_stats(FlowRole::competing);
  EXPECT_EQ(none.unfinished, 0u);
  EXPECT_EQ(none.mean_fct_ms, 0.0);
  EXPECT_EQ(none.median_fct_ms, 0.0);
  EXPECT_EQ(none.mean_normal_retx, 0.0);
  EXPECT_EQ(none.mean_proactive_retx, 0.0);
  EXPECT_EQ(none.mean_timeouts, 0.0);
}

TEST(EmulabRunnerTest, LightLoadAllFlowsFinish) {
  EmulabRunner::Config config;
  EmulabRunner runner{config};
  WorkloadPart part{schemes::Scheme::tcp, fixed_schedule(10, 1_s, 100'000),
                    FlowRole::primary, {}};
  RunResult result = runner.run({part});
  EXPECT_EQ(result.flows.size(), 10u);
  EXPECT_EQ(result.finished_count(FlowRole::primary), 10u);
  EXPECT_EQ(result.unfinished_count(FlowRole::primary), 0u);
  EXPECT_GT(result.mean_fct_ms(FlowRole::primary), 300.0);
  EXPECT_LT(result.mean_fct_ms(FlowRole::primary), 600.0);
}

TEST(EmulabRunnerTest, DeterministicGivenSeed) {
  EmulabRunner::Config config;
  WorkloadPart part{schemes::Scheme::halfback, fixed_schedule(5, 500_ms, 100'000),
                    FlowRole::primary, {}};
  RunResult a = EmulabRunner{config}.run({part});
  RunResult b = EmulabRunner{config}.run({part});
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    EXPECT_EQ(a.flows[i].record.fct().ns(), b.flows[i].record.fct().ns());
    EXPECT_EQ(a.flows[i].record.normal_retx, b.flows[i].record.normal_retx);
  }
}

TEST(EmulabRunnerTest, RolesSeparated) {
  EmulabRunner::Config config;
  EmulabRunner runner{config};
  WorkloadPart shorts{schemes::Scheme::halfback, fixed_schedule(4, 1_s, 100'000),
                      FlowRole::primary, {}};
  WorkloadPart longs{schemes::Scheme::tcp, fixed_schedule(1, 1_s, 2'000'000),
                     FlowRole::background, {}};
  RunResult result = runner.run({shorts, longs});
  EXPECT_EQ(result.fct_ms(FlowRole::primary).count(), 4u);
  EXPECT_EQ(result.fct_ms(FlowRole::background).count(), 1u);
  EXPECT_GT(result.mean_fct_ms(FlowRole::background),
            result.mean_fct_ms(FlowRole::primary));
}

TEST(EmulabRunnerTest, OverloadRecordsDropsAndCensored) {
  // Offered load far beyond capacity: drops must be observed and some
  // flows reported unfinished (censored) rather than silently vanishing.
  EmulabRunner::Config config;
  config.drain = 2_s;
  EmulabRunner runner{config};
  WorkloadPart part{schemes::Scheme::jumpstart, fixed_schedule(200, 10_ms, 100'000),
                    FlowRole::primary, {}};
  RunResult result = runner.run({part});
  EXPECT_GT(result.bottleneck_drops_total, 0u);
  EXPECT_GT(result.unfinished_count(FlowRole::primary), 0u);
  // Censored flows contribute to the mean.
  EXPECT_GT(result.mean_fct_ms(FlowRole::primary), 1000.0);
}

TEST(EmulabRunnerTest, UtilizationReported) {
  EmulabRunner::Config config;
  EmulabRunner runner{config};
  // 30 x 100 KB over ~3 s at 15 Mbps ~ 53% while active.
  WorkloadPart part{schemes::Scheme::tcp, fixed_schedule(30, 100_ms, 100'000),
                    FlowRole::primary, {}};
  RunResult result = runner.run({part});
  EXPECT_GT(result.bottleneck_utilization, 0.0);
  EXPECT_LE(result.bottleneck_utilization, 1.0);
}

}  // namespace
}  // namespace halfback::exp
