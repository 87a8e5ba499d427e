#include "transport/rtt_estimator.h"

#include <gtest/gtest.h>

namespace halfback::transport {
namespace {

using sim::Time;
using namespace halfback::sim::literals;

TEST(RttEstimatorTest, InitialRtoBeforeSamples) {
  RttEstimator est;
  EXPECT_FALSE(est.has_sample());
  EXPECT_EQ(est.rto(), 1_s);
}

TEST(RttEstimatorTest, FirstSampleSetsSrttAndVar) {
  RttEstimator est;
  est.add_sample(400_ms);
  EXPECT_TRUE(est.has_sample());
  EXPECT_EQ(est.srtt(), 400_ms);
  EXPECT_EQ(est.rttvar(), 200_ms);
  // RTO = SRTT + 4*RTTVAR = 1200 ms (above the 1 s floor).
  EXPECT_EQ(est.rto(), 1200_ms);
}

TEST(RttEstimatorTest, SmoothingConvergesToStableRtt) {
  RttEstimator est;
  for (int i = 0; i < 100; ++i) est.add_sample(60_ms);
  EXPECT_NEAR(est.srtt().to_ms(), 60.0, 0.5);
  EXPECT_NEAR(est.rttvar().to_ms(), 0.0, 1.0);
}

TEST(RttEstimatorTest, MinRtoClampsLow) {
  RttEstimator est;
  for (int i = 0; i < 100; ++i) est.add_sample(1_ms);
  EXPECT_EQ(est.rto(), 1_s);  // RFC 6298 floor
}

TEST(RttEstimatorTest, ConfigurableMinRto) {
  RttEstimator::Config config;
  config.min_rto = 10_ms;
  RttEstimator est{config};
  for (int i = 0; i < 100; ++i) est.add_sample(1_ms);
  EXPECT_LT(est.rto(), 200_ms);
  EXPECT_GE(est.rto(), 10_ms);
}

TEST(RttEstimatorTest, BackoffDoublesRto) {
  RttEstimator est;
  est.add_sample(100_ms);
  Time base = est.rto();
  est.backoff();
  EXPECT_EQ(est.rto(), base * 2.0);
  est.backoff();
  EXPECT_EQ(est.rto(), base * 4.0);
}

TEST(RttEstimatorTest, NewSampleResetsBackoff) {
  RttEstimator est;
  est.add_sample(100_ms);
  Time base = est.rto();
  est.backoff();
  est.add_sample(100_ms);
  EXPECT_LE(est.rto(), base + 1_ms);
}

TEST(RttEstimatorTest, ResetBackoffExplicit) {
  RttEstimator est;
  est.add_sample(100_ms);
  Time base = est.rto();
  est.backoff();
  est.reset_backoff();
  EXPECT_EQ(est.rto(), base);
}

TEST(RttEstimatorTest, MaxRtoCaps) {
  RttEstimator est;
  for (int i = 0; i < 20; ++i) est.backoff();
  EXPECT_EQ(est.rto(), 60_s);
  EXPECT_EQ(RttEstimator::kMaxRto, 60_s);
}

TEST(RttEstimatorTest, TracksMinAndLatest) {
  RttEstimator est;
  est.add_sample(100_ms);
  est.add_sample(40_ms);
  est.add_sample(80_ms);
  EXPECT_EQ(est.min_rtt(), 40_ms);
  EXPECT_EQ(est.latest_rtt(), 80_ms);
}

TEST(RttEstimatorTest, VarianceTracksJitter) {
  RttEstimator est;
  for (int i = 0; i < 50; ++i) est.add_sample(i % 2 == 0 ? 40_ms : 80_ms);
  EXPECT_GT(est.rttvar(), 10_ms);
}

TEST(RttEstimatorTest, IgnoresNegativeSamples) {
  RttEstimator est;
  est.add_sample(Time::milliseconds(-5));
  EXPECT_FALSE(est.has_sample());
}

}  // namespace
}  // namespace halfback::transport
