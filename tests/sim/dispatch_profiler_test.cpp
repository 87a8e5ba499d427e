#include "sim/dispatch_profiler.h"

#include <gtest/gtest.h>

#include "sim/simulator.h"
#include "sim/timer.h"

namespace halfback::sim {
namespace {

struct KindA {};
struct KindB {};

TEST(DispatchProfiler, AggregatesByTypeAndOrdersRowsByCount) {
  DispatchProfiler profiler;
  profiler.note_dispatch(typeid(KindA), 10);
  profiler.note_dispatch(typeid(KindA), 5);
  profiler.note_dispatch(typeid(KindB), 100);
  EXPECT_EQ(profiler.total_dispatches(), 3u);

  const std::vector<DispatchProfiler::Row> rows = profiler.rows();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].count, 2u);   // KindA: most dispatches first
  EXPECT_EQ(rows[0].cycles, 15u);
  EXPECT_EQ(rows[1].count, 1u);
  EXPECT_EQ(rows[1].cycles, 100u);
  // Demangled names, not raw mangles.
  EXPECT_NE(rows[0].type_name.find("KindA"), std::string::npos);
  EXPECT_NE(rows[1].type_name.find("KindB"), std::string::npos);
}

TEST(DispatchProfiler, CycleSamplingTicksAreAFunctionOfTheDispatchIndex) {
  DispatchProfiler profiler;
  std::vector<std::uint64_t> ticks;
  for (std::uint64_t i = 0; i < 2 * DispatchProfiler::kSamplePeriod + 2; ++i) {
    if (profiler.should_sample()) ticks.push_back(i);
    profiler.note_dispatch(typeid(KindA), 0);
  }
  const std::vector<std::uint64_t> expected{0, DispatchProfiler::kSamplePeriod,
                                            2 * DispatchProfiler::kSamplePeriod};
  EXPECT_EQ(ticks, expected);
  // Counts stay exact regardless of sampling.
  EXPECT_EQ(profiler.total_dispatches(),
            2 * DispatchProfiler::kSamplePeriod + 2);
}

TEST(DispatchProfiler, CountsDispatchesOnTheInstrumentedLoop) {
  Simulator simulator{1};
  DispatchProfiler profiler;
  simulator.set_profiler(&profiler);
  int fired = 0;
  auto on_fire = [&] { ++fired; };
  Timer timer;
  timer.bind(simulator, on_fire);
  timer.schedule_at(Time::milliseconds(1));
  Timer again;
  again.bind(simulator, on_fire);
  again.schedule_at(Time::milliseconds(2));
  simulator.run_until(Time::milliseconds(10));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(profiler.total_dispatches(), 2u);
  std::uint64_t counted = 0;
  for (const DispatchProfiler::Row& row : profiler.rows()) {
    counted += row.count;
  }
  EXPECT_EQ(counted, 2u);
}

}  // namespace
}  // namespace halfback::sim
