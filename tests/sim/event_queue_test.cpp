#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace halfback::sim {
namespace {

using namespace halfback::sim::literals;

TEST(EventQueueTest, EmptyInitially) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_THROW(q.next_time(), std::logic_error);
  EXPECT_THROW(q.run_next(), std::logic_error);
}

TEST(EventQueueTest, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(3_ms, [&] { order.push_back(3); });
  q.schedule(1_ms, [&] { order.push_back(1); });
  q.schedule(2_ms, [&] { order.push_back(2); });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, TiesRunFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule(1_ms, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, RunNextReturnsEventTime) {
  EventQueue q;
  q.schedule(7_ms, [] {});
  EXPECT_EQ(q.next_time(), 7_ms);
  EXPECT_EQ(q.run_next(), 7_ms);
}

TEST(EventQueueTest, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  EventHandle h = q.schedule(1_ms, [&] { ran = true; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(ran);
}

TEST(EventQueueTest, CancelMiddleEventSkipsOnlyIt) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(1_ms, [&] { order.push_back(1); });
  EventHandle h = q.schedule(2_ms, [&] { order.push_back(2); });
  q.schedule(3_ms, [&] { order.push_back(3); });
  h.cancel();
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueueTest, CancelAfterFireIsNoop) {
  EventQueue q;
  int count = 0;
  EventHandle h = q.schedule(1_ms, [&] { ++count; });
  q.run_next();
  EXPECT_FALSE(h.pending());
  h.cancel();  // must not crash or change anything
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, DefaultHandleIsInert) {
  EventHandle h;
  EXPECT_FALSE(h.pending());
  h.cancel();  // no-op
}

TEST(EventQueueTest, EventsCanScheduleEvents) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(1_ms, [&] {
    order.push_back(1);
    q.schedule(2_ms, [&] { order.push_back(2); });
  });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

/// An intrusive event that appends its label to `order` when it fires.
class Recorder final : public Event {
 public:
  Recorder(std::vector<int>& order, int label) : order_{order}, label_{label} {}

 private:
  void fire() override { order_.push_back(label_); }

  std::vector<int>& order_;
  int label_;
};

TEST(EventQueueTest, TiesWithTheEarliestEventRunAfterIt) {
  EventQueue q;
  std::vector<int> order;
  Recorder a{order, 1};
  Recorder b{order, 2};
  Recorder c{order, 3};
  Recorder d{order, 4};
  q.schedule_event(a, 1_ms);  // earliest
  q.schedule_event(b, 1_ms);  // same time, scheduled later: runs after a
  q.schedule_event(c, 2_ms);
  q.run_next();
  q.run_next();               // nothing earlier than c is pending now
  q.schedule_event(d, 2_ms);  // same time as c, scheduled later
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventQueueTest, RescheduleAheadOfTheEarliestEventRunsFirst) {
  EventQueue q;
  std::vector<int> order;
  Recorder timer{order, 1};
  Recorder hop{order, 2};
  q.schedule_event(timer, 5_ms);
  q.schedule_event(hop, 1_ms);         // now the earliest
  q.reschedule_event(timer, 500_us);   // moves ahead of hop
  EXPECT_EQ(q.next_time(), 500_us);
  EXPECT_EQ(&q.peek_next(), &timer);
  EXPECT_EQ(q.size(), 2U);
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueueTest, MonotoneEqualTimeDispatchIsClean) {
  EventQueue q;
  std::vector<int> order;
  Recorder a{order, 1};
  Recorder b{order, 2};
  Recorder c{order, 3};
  Recorder d{order, 4};
  q.schedule_event(a, 1_ms);
  q.schedule_event(b, 1_ms);
  q.schedule_event(c, 3_ms);
  q.run_next();
  q.schedule_event(d, 1_ms);  // at the time just run: after it, not behind it
  while (!q.empty()) EXPECT_NO_THROW(q.run_next());
  EXPECT_EQ(order, (std::vector<int>{1, 2, 4, 3}));
}

TEST(EventQueueTest, DispatchBehindThePreviousOneThrows) {
  // A bare queue has no clock to refuse a past schedule, so the dispatch
  // check is what stops time from running backwards.
  EventQueue q;
  std::vector<int> order;
  Recorder late{order, 1};
  Recorder early{order, 2};
  q.schedule_event(late, 2_ms);
  q.run_next();
  q.schedule_event(early, 1_ms);
  EXPECT_THROW(q.run_next(), std::logic_error);
  EXPECT_EQ(order, (std::vector<int>{1}));
}

TEST(EventQueueTest, ClearDropsEverything) {
  EventQueue q;
  bool ran = false;
  q.schedule(1_ms, [&] { ran = true; });
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(ran);
}

}  // namespace
}  // namespace halfback::sim
