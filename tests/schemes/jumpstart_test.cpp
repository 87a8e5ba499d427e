#include "schemes/jumpstart.h"

#include <gtest/gtest.h>

#include "support/drop_hook.h"
#include "support/dumbbell_fixture.h"

namespace halfback::schemes {
namespace {

using halfback::testing::DropHook;
using halfback::testing::DumbbellFixture;
using transport::SenderBase;
using namespace halfback::sim::literals;

TEST(JumpStartTest, PacesWholeFlowInOneRtt) {
  DumbbellFixture f;
  SenderBase& s = f.start(Scheme::jumpstart, 100'000);
  // After handshake (60 ms) + one RTT of pacing, all 70 segments must have
  // left the sender.
  f.sim.run_until(125_ms);
  EXPECT_EQ(s.scoreboard().highest_sent(), 70u);
  f.sim.run();
  ASSERT_TRUE(s.complete());
  EXPECT_LT(s.record().fct(), 200_ms);
}

TEST(JumpStartTest, MuchFasterThanTcpOnCleanPath) {
  DumbbellFixture fj;
  SenderBase& j = fj.start(Scheme::jumpstart, 100'000);
  fj.sim.run();

  DumbbellFixture ft;
  SenderBase& t = ft.start(Scheme::tcp, 100'000);
  ft.sim.run();

  // Paper §4.2.1: JumpStart ~2 RTTs vs TCP ~6-7 RTTs.
  EXPECT_LT(j.record().fct() * 2.0, t.record().fct());
}

TEST(JumpStartTest, NoProactiveRetransmissions) {
  DumbbellFixture f;
  SenderBase& s = f.start(Scheme::jumpstart, 100'000);
  f.sim.run();
  EXPECT_EQ(s.record().proactive_retx, 0u);
}

TEST(JumpStartTest, BurstyRecoveryRetransmitsAllDetectedLosses) {
  // Force a clump of mid-flow losses; once three SACKs sit above them the
  // whole clump must go out (bursty retransmission).
  DumbbellFixture f;
  int to_drop = 5;
  DropHook lose_clump{[&](const net::Packet& p) {
    if (p.type == net::PacketType::data && !p.is_retx && p.seq >= 30 && p.seq < 35 &&
        to_drop > 0) {
      --to_drop;
      return true;
    }
    return false;
  }};
  f.dumbbell.bottleneck_forward->set_fault_hook(&lose_clump);
  SenderBase& s = f.start(Scheme::jumpstart, 100'000);
  f.sim.run();
  ASSERT_TRUE(s.complete());
  EXPECT_GE(s.record().normal_retx, 5u);
  EXPECT_EQ(s.record().timeouts, 0u);  // enough SACKs above the clump
}

TEST(JumpStartTest, OverdrivenPathLosesAndRecovers) {
  // Pace 100 KB over a path whose bottleneck cannot absorb it (5 Mbps,
  // small buffer): heavy loss, but data integrity must survive.
  net::DumbbellConfig config;
  config.bottleneck_rate = sim::DataRate::megabits_per_second(5);
  config.bottleneck_buffer_bytes = 15'000;
  DumbbellFixture f{config};
  SenderBase& s = f.start(Scheme::jumpstart, 100'000);
  f.sim.run();
  ASSERT_TRUE(s.complete());
  EXPECT_GT(s.record().normal_retx, 0u);
  transport::Receiver* r = f.receiver_for(s.record().flow);
  EXPECT_EQ(r->stats().unique_segments, 70u);
}

TEST(JumpStartTest, RtoRecoveryIsGoBackN) {
  // The UDT-substrate EXP timeout re-sends everything above the cumulative
  // ACK, SACKed or not (DESIGN.md §5). Force it: drop the whole first half
  // of the paced batch so no fast retransmit can fill the leading hole,
  // then count the storm.
  DumbbellFixture f;
  int drops_left = 5;  // original + every pre-RTO retransmission
  DropHook lose_leading{[&](const net::Packet& p) {
    if (p.type == net::PacketType::data && p.seq == 0 && drops_left > 0) {
      --drops_left;
      return true;  // the leading segment is gone; cum ack cannot move
    }
    return false;
  }};
  f.dumbbell.bottleneck_forward->set_fault_hook(&lose_leading);
  SenderBase& s = f.start(Scheme::jumpstart, 30 * net::kSegmentPayloadBytes);
  f.sim.run();
  ASSERT_TRUE(s.complete());
  ASSERT_GE(s.record().timeouts, 1u);
  // The go-back-N burst re-sent far more than the single lost segment.
  EXPECT_GT(s.record().normal_retx, 10u);
}

TEST(JumpStartTest, NakRoundsRetransmitSamePacketRepeatedly) {
  // "each lost packet may require multiple retransmissions": drop every
  // copy of one mid-flow segment a few times and watch the per-RTT NAK
  // rounds re-send it.
  DumbbellFixture f;
  int drops_left = 3;
  DropHook lose_segment_20{[&](const net::Packet& p) {
    if (p.type == net::PacketType::data && p.seq == 20 && drops_left > 0) {
      --drops_left;
      return true;
    }
    return false;
  }};
  f.dumbbell.bottleneck_forward->set_fault_hook(&lose_segment_20);
  SenderBase& s = f.start(Scheme::jumpstart, 100'000);
  f.sim.run();
  ASSERT_TRUE(s.complete());
  EXPECT_EQ(drops_left, 0);
  EXPECT_GE(s.record().normal_retx, 3u);  // segment 20 needed 3+ re-sends
}

TEST(JumpStartTest, LongFlowContinuesAfterPacedBatch) {
  net::DumbbellConfig config;
  config.bottleneck_buffer_bytes = 200'000;
  DumbbellFixture f{config};
  SenderBase& s = f.start(Scheme::jumpstart, 400'000);
  f.sim.run();
  ASSERT_TRUE(s.complete());
  transport::Receiver* r = f.receiver_for(s.record().flow);
  EXPECT_EQ(r->stats().unique_segments, s.record().total_segments);
}

}  // namespace
}  // namespace halfback::schemes
