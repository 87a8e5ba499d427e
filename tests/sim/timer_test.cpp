// Semantics of the reusable intrusive Timer (and the intrusive event API
// underneath it): cancel-after-fire, in-place reschedule in both
// directions, cancel from inside the timer's own callback, and run_until
// landing exactly on a deadline.
#include "sim/timer.h"

#include <gtest/gtest.h>

#include <vector>

#include "sim/simulator.h"

namespace halfback::sim {
namespace {

TEST(Timer, FiresOnceAtDeadline) {
  Simulator simulator;
  int fired = 0;
  auto on_fire = [&] { ++fired; };
  Timer timer;
  timer.bind(simulator, on_fire);
  timer.schedule_after(Time::microseconds(50));
  EXPECT_TRUE(timer.pending());
  simulator.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(timer.pending());
  EXPECT_EQ(simulator.now(), Time::microseconds(50));
}

TEST(Timer, CancelPreventsFiring) {
  Simulator simulator;
  int fired = 0;
  auto on_fire = [&] { ++fired; };
  Timer timer;
  timer.bind(simulator, on_fire);
  timer.schedule_after(Time::microseconds(50));
  timer.cancel();
  EXPECT_FALSE(timer.pending());
  simulator.run();
  EXPECT_EQ(fired, 0);
}

TEST(Timer, CancelAfterFireIsInert) {
  Simulator simulator;
  int fired = 0;
  auto on_fire = [&] { ++fired; };
  Timer timer;
  timer.bind(simulator, on_fire);
  timer.schedule_after(Time::microseconds(10));
  simulator.run();
  ASSERT_EQ(fired, 1);
  // The slot may have been recycled by other schedules; cancelling a timer
  // that already fired must be a no-op, not a stray removal.
  timer.cancel();
  timer.cancel();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(timer.pending());
}

TEST(Timer, RescheduleEarlierMovesTheDeadline) {
  Simulator simulator;
  std::vector<Time> fire_times;
  auto on_fire = [&] { fire_times.push_back(simulator.now()); };
  Timer timer;
  timer.bind(simulator, on_fire);
  timer.schedule_after(Time::milliseconds(100));
  timer.schedule_after(Time::milliseconds(1));  // re-arm earlier, in place
  simulator.run();
  ASSERT_EQ(fire_times.size(), 1u);
  EXPECT_EQ(fire_times[0], Time::milliseconds(1));
}

TEST(Timer, RescheduleLaterMovesTheDeadline) {
  Simulator simulator;
  std::vector<Time> fire_times;
  auto on_fire = [&] { fire_times.push_back(simulator.now()); };
  Timer timer;
  timer.bind(simulator, on_fire);
  timer.schedule_after(Time::milliseconds(1));
  timer.schedule_after(Time::milliseconds(100));  // re-arm later, in place
  simulator.run();
  ASSERT_EQ(fire_times.size(), 1u);
  EXPECT_EQ(fire_times[0], Time::milliseconds(100));
}

TEST(Timer, RescheduleMovesToBackOfFifoTie) {
  // A reschedule counts as a fresh scheduling: at an equal deadline the
  // re-armed timer fires after timers scheduled before the re-arm.
  Simulator simulator;
  std::vector<int> order;
  auto on_a = [&] { order.push_back(1); };
  Timer a;
  a.bind(simulator, on_a);
  auto on_b = [&] { order.push_back(2); };
  Timer b;
  b.bind(simulator, on_b);
  a.schedule_after(Time::microseconds(10));
  b.schedule_after(Time::microseconds(10));
  a.schedule_after(Time::microseconds(10));  // re-arm: moves behind b
  simulator.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 2);
  EXPECT_EQ(order[1], 1);
}

TEST(Timer, CancelFromInsideOwnCallbackIsSafe) {
  Simulator simulator;
  int fired = 0;
  Timer timer;
  auto on_fire = [&] {
    ++fired;
    timer.cancel();  // already dequeued at fire time; must be a no-op
  };
  timer.bind(simulator, on_fire);
  timer.schedule_after(Time::microseconds(10));
  simulator.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(timer.pending());
}

TEST(Timer, ReschedulesItselfFromItsOwnCallback) {
  Simulator simulator;
  int fired = 0;
  Timer timer;
  auto on_fire = [&] {
    if (++fired < 5) timer.schedule_after(Time::microseconds(10));
  };
  timer.bind(simulator, on_fire);
  timer.schedule_after(Time::microseconds(10));
  simulator.run();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(simulator.now(), Time::microseconds(50));
}

TEST(Timer, DestroyingPendingTimerRemovesItFromTheQueue) {
  Simulator simulator;
  int fired = 0;
  {
    auto on_fire = [&] { ++fired; };
    Timer timer;
    timer.bind(simulator, on_fire);
    timer.schedule_after(Time::microseconds(10));
  }
  EXPECT_TRUE(simulator.queue().empty());
  simulator.run();
  EXPECT_EQ(fired, 0);
}

TEST(Timer, RunUntilLandingExactlyOnDeadlineFiresTheTimer) {
  Simulator simulator;
  int fired = 0;
  auto on_fire = [&] { ++fired; };
  Timer timer;
  timer.bind(simulator, on_fire);
  timer.schedule_after(Time::milliseconds(5));
  // run_until is inclusive: an event at exactly the deadline runs, and the
  // clock finishes at the deadline, not beyond it.
  simulator.run_until(Time::milliseconds(5));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(simulator.now(), Time::milliseconds(5));
}

TEST(Timer, RunUntilBeforeDeadlineLeavesTimerPending) {
  Simulator simulator;
  int fired = 0;
  auto on_fire = [&] { ++fired; };
  Timer timer;
  timer.bind(simulator, on_fire);
  timer.schedule_after(Time::milliseconds(5));
  simulator.run_until(Time::milliseconds(4));
  EXPECT_EQ(fired, 0);
  EXPECT_TRUE(timer.pending());
  EXPECT_EQ(simulator.now(), Time::milliseconds(4));
  simulator.run_until(Time::milliseconds(5));
  EXPECT_EQ(fired, 1);
}

TEST(Timer, SchedulingIsAllocationFreeInSteadyState) {
  // The shim slab must not grow while intrusive timers churn.
  Simulator simulator;
  int fired = 0;
  Timer timer;
  auto on_fire = [&] {
    if (++fired < 1000) timer.schedule_after(Time::microseconds(1));
  };
  timer.bind(simulator, on_fire);
  timer.schedule_after(Time::microseconds(1));
  simulator.run();
  EXPECT_EQ(fired, 1000);
  EXPECT_EQ(simulator.queue().shim_slab_size(), 0u);
}

}  // namespace
}  // namespace halfback::sim
