// Run budgets (sim/budget.h).
//
// The deterministic checks (event count, storm detector) must trip at the
// same event on every replay and leave a structured report.
#include "sim/budget.h"

#include <gtest/gtest.h>

#include <functional>

#include "sim/simulator.h"
#include "sim/time.h"

namespace halfback::sim {
namespace {

/// Schedules itself forever, advancing the sim clock by `step` per event
/// (step == zero models a livelocked timer that never advances time).
struct TickLoop {
  Simulator& simulator;
  Time step;
  std::function<void()> tick;

  explicit TickLoop(Simulator& s, Time step_in) : simulator{s}, step{step_in} {
    tick = [this] { simulator.schedule(step, tick); };
  }
  void start() { simulator.schedule(step, tick); }
};

TEST(BudgetTest, EventBudgetTripsWithAStructuredReport) {
  Simulator simulator{1};
  TickLoop loop{simulator, Time::milliseconds(1)};
  loop.start();

  RunBudget budget;
  budget.max_events = 100;
  BudgetEnforcer enforcer{budget};
  simulator.set_budget(&enforcer);
  simulator.run();

  ASSERT_TRUE(enforcer.tripped());
  const BudgetReport& report = enforcer.report();
  EXPECT_EQ(report.tripped, BudgetTrip::event_count);
  EXPECT_EQ(report.events_executed, 100u);
  EXPECT_EQ(report.pending_events, 1u);  // the next self-rescheduled tick
  ASSERT_FALSE(report.top_pending.empty());
  EXPECT_EQ(report.top_pending.front().count, 1u);
  EXPECT_FALSE(report.top_pending.front().type_name.empty());
  EXPECT_NE(report.summary().find("event_count"), std::string::npos);
}

TEST(BudgetTest, StormDetectorTripsOnALivelockedTimerLoop) {
  Simulator simulator{1};
  TickLoop loop{simulator, Time::zero()};  // burns events, clock never moves
  loop.start();

  RunBudget budget;
  budget.storm_window = 64;
  budget.storm_events_per_sim_second = 1e6;
  BudgetEnforcer enforcer{budget};
  simulator.set_budget(&enforcer);
  simulator.run();

  ASSERT_TRUE(enforcer.tripped());
  const BudgetReport& report = enforcer.report();
  EXPECT_EQ(report.tripped, BudgetTrip::storm);
  EXPECT_EQ(report.window_span, Time::zero());
  EXPECT_LT(report.events_executed, 2u * budget.storm_window);
}

TEST(BudgetTest, StormDetectorPassesAHealthyRun) {
  Simulator simulator{1};
  int remaining = 1000;
  std::function<void()> tick = [&] {
    if (--remaining > 0) simulator.schedule(Time::milliseconds(1), tick);
  };
  simulator.schedule(Time::milliseconds(1), tick);

  RunBudget budget;
  budget.storm_window = 100;
  budget.storm_events_per_sim_second = 1e6;  // healthy rate is 1e3
  BudgetEnforcer enforcer{budget};
  simulator.set_budget(&enforcer);
  simulator.run();

  EXPECT_FALSE(enforcer.tripped());
  EXPECT_EQ(simulator.events_executed(), 1000u);
}

TEST(BudgetTest, ATrippedBudgetIsSticky) {
  Simulator simulator{1};
  TickLoop loop{simulator, Time::milliseconds(1)};
  loop.start();

  RunBudget budget;
  budget.max_events = 10;
  BudgetEnforcer enforcer{budget};
  simulator.set_budget(&enforcer);
  simulator.run();
  ASSERT_TRUE(enforcer.tripped());
  const std::uint64_t at_trip = simulator.events_executed();

  // A second run() must not dispatch anything while the trip stands.
  simulator.run();
  EXPECT_EQ(simulator.events_executed(), at_trip);
  EXPECT_EQ(enforcer.report().tripped, BudgetTrip::event_count);
}

TEST(BudgetTest, RunUntilUnderBudgetStillHonorsTheDeadline) {
  Simulator simulator{1};
  TickLoop loop{simulator, Time::milliseconds(1)};
  loop.start();

  BudgetEnforcer enforcer{RunBudget{.max_events = 1'000'000}};
  simulator.set_budget(&enforcer);
  simulator.run_until(Time::milliseconds(50));

  EXPECT_FALSE(enforcer.tripped());
  EXPECT_EQ(simulator.now(), Time::milliseconds(50));
  EXPECT_EQ(simulator.events_executed(), 50u);
}

}  // namespace
}  // namespace halfback::sim
