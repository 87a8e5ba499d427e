#include "transport/tcp_sender.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "support/dumbbell_fixture.h"

namespace halfback::transport {
namespace {

using schemes::Scheme;
using halfback::testing::DumbbellFixture;
using halfback::testing::one_pair;
using namespace halfback::sim::literals;

TEST(TcpSenderTest, SmallFlowCompletesInTwoRtts) {
  // 2 segments fit in the initial window: 1 RTT handshake + 1 RTT data.
  DumbbellFixture f{one_pair()};
  SenderBase& s = f.start(Scheme::tcp, 2 * net::kSegmentPayloadBytes);
  f.sim.run();
  ASSERT_TRUE(s.complete());
  EXPECT_GT(s.record().fct(), 120_ms);
  EXPECT_LT(s.record().fct(), 130_ms);
  EXPECT_EQ(s.record().normal_retx, 0u);
}

TEST(TcpSenderTest, HundredKbFlowUsesSlowStart) {
  // 100 KB = 70 segments; slow start 2,4,8,16,32 covers 62 after 5 data
  // RTTs, 6th round finishes. FCT ~ 7 RTTs = 420 ms.
  DumbbellFixture f{one_pair()};
  SenderBase& s = f.start(Scheme::tcp, 100'000);
  f.sim.run();
  ASSERT_TRUE(s.complete());
  EXPECT_EQ(s.record().total_segments, 70u);
  double rtts = s.record().rtts_used();
  EXPECT_GT(rtts, 6.5);
  EXPECT_LT(rtts, 7.6);
  EXPECT_EQ(s.record().normal_retx, 0u);
  EXPECT_EQ(s.record().timeouts, 0u);
}

TEST(TcpSenderTest, Icw10FinishesFaster) {
  DumbbellFixture slow{one_pair()};
  SenderBase& s2 = slow.start(Scheme::tcp, 100'000);
  slow.sim.run();

  DumbbellFixture fast{one_pair()};
  SenderBase& s10 = fast.start(Scheme::tcp10, 100'000);
  fast.sim.run();

  ASSERT_TRUE(s2.complete());
  ASSERT_TRUE(s10.complete());
  // 10,20,40 -> 3 data rounds instead of 6.
  EXPECT_LT(s10.record().fct(), s2.record().fct());
  EXPECT_LT(s10.record().rtts_used(), 5.0);
}

TEST(TcpSenderTest, AllDataDeliveredExactlyOnceWithoutLoss) {
  DumbbellFixture f{one_pair()};
  f.start(Scheme::tcp, 100'000);
  f.sim.run();
  Receiver* r = f.receiver_for(1);
  ASSERT_NE(r, nullptr);
  EXPECT_TRUE(r->stats().complete);
  EXPECT_EQ(r->stats().unique_segments, 70u);
  EXPECT_EQ(r->stats().duplicate_segments, 0u);
}

TEST(TcpSenderTest, RecoversFromLossViaFastRetransmit) {
  // Tiny bottleneck buffer forces drops during slow start; SACK-based
  // recovery must still complete the flow without data corruption.
  net::DumbbellConfig config;
  config.bottleneck_buffer_bytes = 20'000;
  DumbbellFixture f{one_pair(config)};
  SenderBase& s = f.start(Scheme::tcp, 100'000);
  f.sim.run();
  ASSERT_TRUE(s.complete());
  EXPECT_GT(s.record().normal_retx, 0u);
  Receiver* r = f.receiver_for(1);
  EXPECT_EQ(r->stats().unique_segments, 70u);
}

TEST(TcpSenderTest, CongestionWindowHalvesOnLossEpisode) {
  net::DumbbellConfig config;
  config.bottleneck_buffer_bytes = 20'000;
  DumbbellFixture f{one_pair(config)};
  auto* tcp = static_cast<TcpSender*>(&f.start(Scheme::tcp, 100'000));
  double max_cwnd_seen = 0;
  bool saw_recovery = false;
  // Poll cwnd as the sim runs.
  for (int i = 0; i < 20000 && !tcp->complete(); ++i) {
    f.sim.run_until(f.sim.now() + 1_ms);
    max_cwnd_seen = std::max(max_cwnd_seen, tcp->cwnd());
    if (tcp->in_recovery()) saw_recovery = true;
  }
  f.sim.run();
  EXPECT_TRUE(saw_recovery);
  EXPECT_GT(max_cwnd_seen, 8.0);
}

TEST(TcpSenderTest, TailLossTriggersRtoAndStillCompletes) {
  // A sub-packet buffer drops every packet that arrives while another is
  // transmitting: the initial 2-segment burst loses its second segment, and
  // with only 3 segments there are never 3 SACKs above the hole, so the
  // sender must resort to an RTO.
  net::DumbbellConfig config;
  config.bottleneck_buffer_bytes = 1'400;  // less than one segment
  DumbbellFixture f{one_pair(config)};
  SenderBase& s = f.start(Scheme::tcp, 3 * net::kSegmentPayloadBytes);
  f.sim.run();
  ASSERT_TRUE(s.complete());
  EXPECT_GE(s.record().timeouts, 1u);
  Receiver* r = f.receiver_for(1);
  EXPECT_EQ(r->stats().unique_segments, 3u);
}

TEST(TcpSenderTest, RespectsFlowControlWindow) {
  // A flow much larger than the 141 KB receive window must never have more
  // than the window outstanding.
  net::DumbbellConfig config;
  config.bottleneck_buffer_bytes = 400'000;  // avoid losses
  DumbbellFixture f{one_pair(config)};
  auto* tcp = static_cast<TcpSender*>(&f.start(Scheme::tcp, 500'000));
  std::uint32_t max_pipe = 0;
  while (!tcp->complete() && f.sim.now() < 60_s) {
    f.sim.run_until(f.sim.now() + 1_ms);
    max_pipe = std::max(max_pipe, tcp->scoreboard().pipe());
  }
  EXPECT_TRUE(tcp->complete());
  EXPECT_LE(max_pipe, 97u);
}

TEST(TcpSenderTest, HandshakeRttMeasured) {
  DumbbellFixture f{one_pair()};
  SenderBase& s = f.start(Scheme::tcp, 10'000);
  f.sim.run();
  EXPECT_NEAR(s.record().handshake_rtt.to_ms(), 60.0, 1.0);
}

TEST(TcpSenderTest, FlowRecordAccountsPackets) {
  DumbbellFixture f{one_pair()};
  SenderBase& s = f.start(Scheme::tcp, 100'000);
  f.sim.run();
  const FlowRecord& r = s.record();
  EXPECT_EQ(r.data_packets_sent, 70u + r.normal_retx + r.proactive_retx);
  EXPECT_GT(r.acks_received, 0u);
  EXPECT_EQ(r.proactive_retx, 0u);  // vanilla TCP never sends proactively
  EXPECT_DOUBLE_EQ(r.fct().to_ms(), (r.completion_time - r.start_time).to_ms());
}

TEST(TcpSenderTest, TwoCompetingFlowsShareAndComplete) {
  net::DumbbellConfig config;
  config.sender_count = 2;
  config.receiver_count = 2;
  DumbbellFixture f{config, /*seed=*/7};
  SenderBase& f0 = f.start(Scheme::tcp, 200'000, 0);
  SenderBase& f1 = f.start(Scheme::tcp, 200'000, 1);
  f.sim.run();
  EXPECT_TRUE(f0.complete());
  EXPECT_TRUE(f1.complete());
}

TEST(TcpSenderTest, ZeroByteFlowStillCompletes) {
  DumbbellFixture f{one_pair()};
  SenderBase& s = f.start(Scheme::tcp, 0);
  f.sim.run();
  EXPECT_TRUE(s.complete());
  EXPECT_EQ(s.record().total_segments, 1u);
}

}  // namespace
}  // namespace halfback::transport
