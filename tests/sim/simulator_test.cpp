#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace halfback::sim {
namespace {

using namespace halfback::sim::literals;

TEST(SimulatorTest, ClockStartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), Time::zero());
}

TEST(SimulatorTest, RunAdvancesClock) {
  Simulator sim;
  Time seen;
  sim.schedule(5_ms, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, 5_ms);
  EXPECT_EQ(sim.now(), 5_ms);
}

TEST(SimulatorTest, RelativeSchedulingChains) {
  Simulator sim;
  std::vector<double> times_ms;
  sim.schedule(1_ms, [&] {
    times_ms.push_back(sim.now().to_ms());
    sim.schedule(1_ms, [&] { times_ms.push_back(sim.now().to_ms()); });
  });
  sim.run();
  ASSERT_EQ(times_ms.size(), 2u);
  EXPECT_DOUBLE_EQ(times_ms[0], 1.0);
  EXPECT_DOUBLE_EQ(times_ms[1], 2.0);
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  int ran = 0;
  sim.schedule(1_ms, [&] { ++ran; });
  sim.schedule(10_ms, [&] { ++ran; });
  sim.run_until(5_ms);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(sim.now(), 5_ms);
  sim.run();
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(sim.now(), 10_ms);
}

TEST(SimulatorTest, RunUntilIncludesDeadlineEvents) {
  Simulator sim;
  bool ran = false;
  sim.schedule(5_ms, [&] { ran = true; });
  sim.run_until(5_ms);
  EXPECT_TRUE(ran);
}

TEST(SimulatorTest, StopHaltsRun) {
  Simulator sim;
  int ran = 0;
  sim.schedule(1_ms, [&] {
    ++ran;
    sim.stop();
  });
  sim.schedule(2_ms, [&] { ++ran; });
  sim.run();
  EXPECT_EQ(ran, 1);
  // Resuming picks the remaining event back up.
  sim.run();
  EXPECT_EQ(ran, 2);
}

TEST(SimulatorTest, ScheduleAtAbsoluteTime) {
  Simulator sim;
  Time seen;
  sim.schedule_at(7_ms, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, 7_ms);
}

TEST(SimulatorTest, CountsEvents) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.schedule(Time::milliseconds(i), [] {});
  sim.run();
  EXPECT_EQ(sim.events_executed(), 5u);
}

/// An intrusive event that does nothing when it fires.
class NoOp final : public Event {
  void fire() override {}
};

TEST(SimulatorTest, EveryScheduleMethodThrowsOnAPastTime) {
  Simulator sim;
  sim.run_until(5_ms);
  ASSERT_EQ(sim.now(), 5_ms);
  const Time past = 4_ms;
  const Time behind = past - sim.now();
  NoOp event;
  EXPECT_THROW(sim.schedule(behind, [] {}), std::logic_error);
  EXPECT_THROW(sim.schedule_at(past, [] {}), std::logic_error);
  EXPECT_THROW(sim.schedule_event(behind, event), std::logic_error);
  EXPECT_THROW(sim.reschedule_event(behind, event), std::logic_error);
  EXPECT_THROW(sim.reschedule_event_at(past, event), std::logic_error);
  EXPECT_TRUE(sim.queue().empty());
  EXPECT_FALSE(event.queued());

  // A queued event asked to move into the past stays where it was.
  sim.schedule_event(1_ms, event);
  EXPECT_THROW(sim.reschedule_event_at(past, event), std::logic_error);
  EXPECT_EQ(event.deadline(), 6_ms);
}

TEST(SimulatorTest, EveryScheduleMethodAcceptsTheCurrentTime) {
  Simulator sim;
  sim.run_until(5_ms);
  int ran = 0;
  NoOp event;
  NoOp other;
  sim.schedule(Time::zero(), [&] { ++ran; });
  sim.schedule_at(sim.now(), [&] { ++ran; });
  sim.schedule_event(Time::zero(), event);
  sim.reschedule_event(Time::zero(), other);
  sim.reschedule_event_at(sim.now(), event);
  sim.run();
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(sim.events_executed(), 4u);
  EXPECT_EQ(sim.now(), 5_ms);
}

TEST(SimulatorTest, SchedulingInThePastThrowsOutOfRun) {
  // An event at t=5ms schedules another at absolute t=1ms, in the past.
  Simulator sim;
  sim.schedule_at(5_ms, [&] { sim.schedule_at(1_ms, [] {}); });
  EXPECT_THROW(sim.run(), std::logic_error);
  EXPECT_EQ(sim.now(), 5_ms);
  EXPECT_TRUE(sim.queue().empty());
}

TEST(SimulatorTest, RandomIsSeeded) {
  Simulator a{123};
  Simulator b{123};
  EXPECT_DOUBLE_EQ(a.random().uniform(), b.random().uniform());
}

}  // namespace
}  // namespace halfback::sim
