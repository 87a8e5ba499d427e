#include "schemes/halfback.h"

#include <gtest/gtest.h>

#include "support/drop_hook.h"
#include "support/dumbbell_fixture.h"

namespace halfback::schemes {
namespace {

using halfback::testing::DropHook;
using halfback::testing::DumbbellFixture;
using transport::SenderBase;
using namespace halfback::sim::literals;

TEST(HalfbackTest, CleanPathFinishesInAboutThreeRtts) {
  // 1 RTT handshake + 1 RTT pacing spread + ~1 RTT for the tail ACK.
  DumbbellFixture f;
  SenderBase& s = f.start(Scheme::halfback, 100'000);
  f.sim.run();
  ASSERT_TRUE(s.complete());
  EXPECT_LT(s.record().fct(), 200_ms);
  EXPECT_GT(s.record().fct(), 170_ms);
  EXPECT_EQ(s.record().timeouts, 0u);
  EXPECT_EQ(s.record().normal_retx, 0u);
}

TEST(HalfbackTest, RoprRetransmitsAboutHalfTheFlow) {
  // §3.2: ACKs move forward while ROPR moves backward, meeting in the
  // middle — "ROPR typically retransmits only 50% of the short flow".
  DumbbellFixture f;
  SenderBase& s = f.start(Scheme::halfback, 100'000);
  f.sim.run();
  ASSERT_TRUE(s.complete());
  const double frac = static_cast<double>(s.record().proactive_retx) /
                      s.record().total_segments;
  EXPECT_GT(frac, 0.35);
  EXPECT_LT(frac, 0.6);
}

TEST(HalfbackTest, ProactiveCopiesAreNotNormalRetransmissions) {
  DumbbellFixture f;
  SenderBase& s = f.start(Scheme::halfback, 100'000);
  f.sim.run();
  EXPECT_EQ(s.record().normal_retx, 0u);
  EXPECT_GT(s.record().proactive_retx, 0u);
}

TEST(HalfbackTest, ReceiverSeesDuplicatesOnCleanPath) {
  // Without loss, every ROPR copy is a duplicate at the receiver.
  DumbbellFixture f;
  SenderBase& s = f.start(Scheme::halfback, 100'000);
  f.sim.run();
  transport::Receiver* r = f.receiver_for(s.record().flow);
  ASSERT_NE(r, nullptr);
  EXPECT_TRUE(r->stats().complete);
  EXPECT_EQ(r->stats().unique_segments, 70u);
  EXPECT_EQ(r->stats().duplicate_segments, s.record().proactive_retx);
}

TEST(HalfbackTest, Fig3TailLossRecoveredByRoprWithoutTimeout) {
  // The §3.4 walkthrough: a 10-segment flow loses one packet near the tail
  // on its first transmission; the ROPR copy delivers it before any
  // timeout and without waiting for normal loss detection.
  DumbbellFixture f;
  bool dropped = false;
  DropHook lose_first_copy{[&](const net::Packet& p) {
    if (!dropped && p.type == net::PacketType::data && p.seq == 8 && !p.is_retx) {
      dropped = true;
      return true;
    }
    return false;
  }};
  f.dumbbell.bottleneck_forward->set_fault_hook(&lose_first_copy);
  SenderBase& s = f.start(Scheme::halfback, 10 * net::kSegmentPayloadBytes);
  f.sim.run();
  ASSERT_TRUE(dropped);
  ASSERT_TRUE(s.complete());
  EXPECT_EQ(s.record().timeouts, 0u);
  // FCT stays within ~2 data RTTs + handshake despite the loss.
  EXPECT_LT(s.record().fct(), 250_ms);
  // The injected drop is booked like any fault-hook drop: link
  // conservation and exactly-once delivery still hold.
  EXPECT_EQ(f.dumbbell.bottleneck_forward->stats().fault_dropped_packets, 1u);
  EXPECT_EQ(f.finish().audit_violations, 0u);
}

TEST(HalfbackTest, TailLossFasterThanVanillaTcp) {
  auto run_with_tail_loss = [](Scheme scheme) {
    DumbbellFixture f;
    bool dropped = false;
    DropHook lose_last{[&](const net::Packet& p) {
      if (!dropped && p.type == net::PacketType::data && p.seq == 9 && !p.is_retx) {
        dropped = true;
        return true;
      }
      return false;
    }};
    f.dumbbell.bottleneck_forward->set_fault_hook(&lose_last);
    SenderBase& s = f.start(scheme, 10 * net::kSegmentPayloadBytes);
    f.sim.run();
    EXPECT_TRUE(s.complete());
    return s.record().fct();
  };
  // The very last segment lost: TCP has no dupACKs at all and must RTO.
  EXPECT_LT(run_with_tail_loss(Scheme::halfback) + 50_ms,
            run_with_tail_loss(Scheme::tcp));
}

TEST(HalfbackTest, SmallBufferBeatsJumpStart) {
  // Fig. 10: with small router buffers Halfback achieves up to 45% lower
  // FCT than JumpStart thanks to ROPR's paced, proactive recovery. The
  // pacing rate (100 KB / 60 ms ~ 13.9 Mbps) must exceed the bottleneck for
  // the paced batch to overflow, so use a 10 Mbps bottleneck.
  net::DumbbellConfig config;
  config.bottleneck_rate = sim::DataRate::megabits_per_second(10);
  config.bottleneck_buffer_bytes = 15'000;

  DumbbellFixture fh{config};
  SenderBase& h = fh.start(Scheme::halfback, 100'000);
  fh.sim.run();

  DumbbellFixture fj{config};
  SenderBase& j = fj.start(Scheme::jumpstart, 100'000);
  fj.sim.run();

  ASSERT_TRUE(h.complete());
  ASSERT_TRUE(j.complete());
  EXPECT_LT(h.record().fct(), j.record().fct());
}

TEST(HalfbackTest, FallbackTransmitsLongFlows) {
  // Flow of 400 KB >> the 141 KB pacing threshold: Pacing+ROPR cover the
  // first 97 segments, the rest goes via the TCP fallback (§3.3).
  net::DumbbellConfig config;
  config.bottleneck_buffer_bytes = 200'000;
  DumbbellFixture f{config};
  SenderBase& s = f.start(Scheme::halfback, 400'000);
  f.sim.run();
  ASSERT_TRUE(s.complete());
  transport::Receiver* r = f.receiver_for(s.record().flow);
  EXPECT_TRUE(r->stats().complete);
  EXPECT_EQ(r->stats().unique_segments, s.record().total_segments);
  // Proactive copies only cover the paced batch.
  EXPECT_LE(s.record().proactive_retx, 97u);
}

TEST(HalfbackTest, ForwardAblationCompletesButWastesCopies) {
  DumbbellFixture f;
  SenderBase& s = f.start(Scheme::halfback_forward, 100'000);
  f.sim.run();
  ASSERT_TRUE(s.complete());
  EXPECT_EQ(s.record().scheme, "halfback-forward");
  EXPECT_GT(s.record().proactive_retx, 0u);
}

TEST(HalfbackTest, BurstAblationRetransmitsNearlyEverything) {
  DumbbellFixture f;
  SenderBase& s = f.start(Scheme::halfback_burst, 100'000);
  f.sim.run();
  ASSERT_TRUE(s.complete());
  // At line rate the ACK frontier barely moves during the burst, so almost
  // the whole batch is duplicated (~100% overhead vs Halfback's ~50%).
  EXPECT_GT(s.record().proactive_retx, 55u);
}

TEST(HalfbackTest, PacingRespectsThresholdConfig) {
  DumbbellFixture f;
  f.context.halfback_config.pacing_threshold_segments = 20;
  SenderBase& s = f.start(Scheme::halfback, 100'000);
  f.sim.run();
  ASSERT_TRUE(s.complete());
  EXPECT_LE(s.record().proactive_retx, 20u);
}

TEST(HalfbackTest, InitialBurstRefinementSpeedsUpTinyFlows) {
  // §4.2.4: "send a first batch of data as a burst ... before Halfback's
  // Pacing Phase" to fix the small-flow region.
  DumbbellFixture paced;
  SenderBase& slow = paced.start(Scheme::halfback, 10'000);
  paced.sim.run();

  DumbbellFixture burst;
  burst.context.halfback_config.initial_burst_segments = 10;
  SenderBase& fast = burst.start(Scheme::halfback, 10'000);
  burst.sim.run();

  ASSERT_TRUE(slow.complete());
  ASSERT_TRUE(fast.complete());
  // 7 segments burst in one window: ~2 RTTs instead of ~3.
  EXPECT_LT(fast.record().fct() + 30_ms, slow.record().fct());
  EXPECT_LT(fast.record().fct(), 135_ms);
}

TEST(HalfbackTest, InitialBurstStillPacesLargeFlows) {
  DumbbellFixture f;
  f.context.halfback_config.initial_burst_segments = 10;
  SenderBase& s = f.start(Scheme::halfback, 100'000);
  f.sim.run();
  ASSERT_TRUE(s.complete());
  // ROPR still runs over the whole batch.
  EXPECT_GT(s.record().proactive_retx, 20u);
  EXPECT_EQ(s.record().timeouts, 0u);
}

TEST(HalfbackTest, CopiesPerAckRatioTunesOverhead) {
  // §5: "instead of sending one retransmission for each ACK, we could send
  // two retransmissions for every three ACKs" — less proactive bandwidth.
  DumbbellFixture full;
  SenderBase& one_per_ack = full.start(Scheme::halfback, 100'000);
  full.sim.run();

  DumbbellFixture tuned;
  tuned.context.halfback_config.copies_per_ack = 2.0 / 3.0;
  SenderBase& two_per_three = tuned.start(Scheme::halfback, 100'000);
  tuned.sim.run();

  ASSERT_TRUE(one_per_ack.complete());
  ASSERT_TRUE(two_per_three.complete());
  EXPECT_LT(two_per_three.record().proactive_retx,
            one_per_ack.record().proactive_retx);
  // The meet-in-the-middle algebra: frontier k = N - (2/3)k at the meeting
  // point, so copies ~ 0.4 N instead of 0.5 N.
  const double frac = static_cast<double>(two_per_three.record().proactive_retx) /
                      two_per_three.record().total_segments;
  EXPECT_GT(frac, 0.3);
  EXPECT_LT(frac, 0.47);
}

TEST(HalfbackTest, SingleSegmentFlow) {
  DumbbellFixture f;
  SenderBase& s = f.start(Scheme::halfback, 100);
  f.sim.run();
  ASSERT_TRUE(s.complete());
  EXPECT_EQ(s.record().total_segments, 1u);
  // 1 RTT handshake + ~1 RTT data.
  EXPECT_LT(s.record().fct(), 130_ms);
}

}  // namespace
}  // namespace halfback::schemes
