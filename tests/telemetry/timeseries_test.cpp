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

}  // namespace
}  // namespace halfback::telemetry
