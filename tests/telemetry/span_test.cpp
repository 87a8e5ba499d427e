#include "telemetry/span.h"

#include <gtest/gtest.h>

namespace halfback::telemetry {
namespace {

using sim::Time;

TEST(SpanRecorder, OpenCloseAssignsSequentialIds) {
  SpanRecorder spans;
  const std::uint32_t root =
      spans.open_span(7, SpanKind::flow, 0, Time::milliseconds(1));
  const std::uint32_t child =
      spans.open_span(7, SpanKind::handshake, root, Time::milliseconds(1));
  EXPECT_EQ(root, 1u);
  EXPECT_EQ(child, 2u);
  spans.close_span(child, Time::milliseconds(2));
  spans.close_span(root, Time::milliseconds(3));
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans.at(0).kind, SpanKind::flow);
  EXPECT_EQ(spans.at(0).parent, 0u);
  EXPECT_FALSE(spans.at(0).open);
  EXPECT_EQ(spans.at(0).begin, Time::milliseconds(1));
  EXPECT_EQ(spans.at(0).end, Time::milliseconds(3));
  EXPECT_EQ(spans.at(1).parent, root);
  EXPECT_EQ(spans.at(1).end, Time::milliseconds(2));
}

TEST(SpanRecorder, CloseIsIdempotentAndIgnoresInvalidIds) {
  SpanRecorder spans;
  const std::uint32_t id =
      spans.open_span(1, SpanKind::blast, 0, Time::milliseconds(5));
  spans.close_span(id, Time::milliseconds(8));
  // A second close must not move the recorded end.
  spans.close_span(id, Time::milliseconds(9));
  EXPECT_EQ(spans.at(0).end, Time::milliseconds(8));
  // 0 and out-of-range ids are no-ops, so callers close unconditionally.
  spans.close_span(0, Time::milliseconds(9));
  spans.close_span(99, Time::milliseconds(9));
  EXPECT_EQ(spans.size(), 1u);
}

TEST(SpanRecorder, OpenSpanStaysOpenUntilClosed) {
  SpanRecorder spans;
  const std::uint32_t id =
      spans.open_span(3, SpanKind::rto_recovery, 0, Time::seconds(1));
  EXPECT_TRUE(spans.at(0).open);
  EXPECT_EQ(spans.at(0).end, Time::seconds(1));
  spans.abandon_span(id);
  EXPECT_TRUE(spans.at(0).abandoned);
  EXPECT_TRUE(spans.at(0).open);  // abandon flags, close ends
}

TEST(SpanRecorder, OverflowCountsDropsInsteadOfGrowing) {
  SpanRecorder spans;
  EXPECT_NE(spans.open_span(1, SpanKind::flow, 0, Time{}), 0u);
  for (std::size_t i = 1; i < SpanRecorder::kCapacity; ++i) {
    EXPECT_NE(spans.open_span(1, SpanKind::handshake, 1, Time{}), 0u);
  }
  EXPECT_EQ(spans.open_span(1, SpanKind::blast, 1, Time{}), 0u);
  EXPECT_EQ(spans.size(), SpanRecorder::kCapacity);
  EXPECT_EQ(spans.dropped(), 1u);
}

TEST(SpanKindNames, AreStable) {
  EXPECT_STREQ(to_string(SpanKind::flow), "flow");
  EXPECT_STREQ(to_string(SpanKind::handshake), "handshake");
  EXPECT_STREQ(to_string(SpanKind::pacing), "pacing");
  EXPECT_STREQ(to_string(SpanKind::blast), "blast");
  EXPECT_STREQ(to_string(SpanKind::ropr_repair), "ropr_repair");
  EXPECT_STREQ(to_string(SpanKind::fallback), "fallback");
  EXPECT_STREQ(to_string(SpanKind::rto_recovery), "rto_recovery");
}

}  // namespace
}  // namespace halfback::telemetry
