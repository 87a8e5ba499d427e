#include "telemetry/timeseries.h"

#include <gtest/gtest.h>

namespace halfback::telemetry {
namespace {

using sim::Time;

TEST(WindowSeries, TalliesLandInTheirWindow) {
  WindowSeries series{"link.0", Time::milliseconds(10), 8};
  series.tally_bytes(Time::milliseconds(3), 1500);
  series.tally_packets(Time::milliseconds(3), 1);
  series.tally_bytes(Time::milliseconds(17), 3000);
  series.tally_drop(Time::milliseconds(17));
  ASSERT_EQ(series.window_count(), 2u);
  EXPECT_EQ(series.window(0).bytes, 1500u);
  EXPECT_EQ(series.window(0).packets, 1u);
  EXPECT_EQ(series.window(0).drops, 0u);
  EXPECT_EQ(series.window(1).bytes, 3000u);
  EXPECT_EQ(series.window(1).drops, 1u);
}

TEST(WindowSeries, GapsBetweenTalliesStayZero) {
  WindowSeries series{"flow", Time::milliseconds(60), 8};
  series.tally_bytes(Time::zero(), 100);
  series.tally_bytes(Time::milliseconds(200), 100);  // window 3
  ASSERT_EQ(series.window_count(), 4u);
  EXPECT_EQ(series.window(1).bytes, 0u);
  EXPECT_EQ(series.window(2).bytes, 0u);
  EXPECT_EQ(series.window(3).bytes, 100u);
}

TEST(WindowSeries, PeaksAreHighWaterMarksNotSums) {
  WindowSeries series{"link.0", Time::milliseconds(10), 8};
  series.raise_queue_peak(Time::milliseconds(1), 4);
  series.raise_queue_peak(Time::milliseconds(2), 9);
  series.raise_queue_peak(Time::milliseconds(3), 6);
  series.raise_inflight_peak(Time::milliseconds(1), 30000);
  series.raise_inflight_peak(Time::milliseconds(2), 10000);
  EXPECT_EQ(series.window(0).queue_peak, 9u);
  EXPECT_EQ(series.window(0).inflight_peak, 30000u);
}

TEST(WindowSeries, ActivityPastTheLastWindowCountsAsDropped) {
  WindowSeries series{"link.0", Time::milliseconds(10), 2};
  series.tally_bytes(Time::milliseconds(5), 100);    // window 0
  series.tally_bytes(Time::milliseconds(25), 100);   // window 2: past capacity
  EXPECT_EQ(series.window_count(), 1u);
  EXPECT_EQ(series.dropped(), 1u);
}

TEST(WindowSeries, WindowCountTracksHighestTouchedIndex) {
  WindowSeries series{"flow", Time::milliseconds(10), 16};
  series.tally_retx(Time::milliseconds(55));  // window 5 only
  ASSERT_EQ(series.window_count(), 6u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_FALSE(series.window(i).touched());
  EXPECT_EQ(series.window(5).retx, 1u);
}

TEST(WindowSeries, MergeAddsTalliesAndMaxesPeaks) {
  WindowSeries a{"link.0", Time::milliseconds(10), 8};
  a.tally_bytes(Time::milliseconds(1), 100);
  a.raise_queue_peak(Time::milliseconds(1), 3);

  WindowSeries b{"link.0", Time::milliseconds(10), 8};
  b.tally_bytes(Time::milliseconds(1), 50);
  b.raise_queue_peak(Time::milliseconds(1), 7);
  b.tally_dup(Time::milliseconds(12));

  a.merge_from(b);
  ASSERT_EQ(a.window_count(), 2u);
  EXPECT_EQ(a.window(0).bytes, 150u);
  EXPECT_EQ(a.window(0).queue_peak, 7u);
  EXPECT_EQ(a.window(1).dups, 1u);
}

TEST(WindowSeries, MergeRejectsMismatchedWidths) {
  WindowSeries a{"link.0", Time::milliseconds(10), 4};
  WindowSeries b{"link.0", Time::milliseconds(20), 4};
  EXPECT_THROW(a.merge_from(b), std::invalid_argument);
}

TEST(WindowSeries, MergeOrderIsCommutativeOnContent) {
  // The shard-merge discipline relies on fold results not depending on
  // which shard recorded what — adds and maxes are order-free.
  WindowSeries left{"s", Time::milliseconds(10), 4};
  WindowSeries a{"s", Time::milliseconds(10), 4};
  WindowSeries b{"s", Time::milliseconds(10), 4};
  a.tally_packets(Time::milliseconds(2), 5);
  a.raise_inflight_peak(Time::milliseconds(2), 100);
  b.tally_packets(Time::milliseconds(2), 3);
  b.raise_inflight_peak(Time::milliseconds(2), 400);

  left.merge_from(a);
  left.merge_from(b);
  WindowSeries right{"s", Time::milliseconds(10), 4};
  right.merge_from(b);
  right.merge_from(a);
  ASSERT_EQ(left.window_count(), right.window_count());
  EXPECT_EQ(left.window(0).packets, right.window(0).packets);
  EXPECT_EQ(left.window(0).inflight_peak, right.window(0).inflight_peak);
}

}  // namespace
}  // namespace halfback::telemetry
