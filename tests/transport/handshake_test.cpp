// Connection-establishment robustness: SYN and SYN-ACK loss, retry
// backoff, and its interaction with each scheme's startup.
#include <gtest/gtest.h>

#include "support/drop_hook.h"
#include "support/dumbbell_fixture.h"

namespace halfback::transport {
namespace {

using schemes::Scheme;
using halfback::testing::DropHook;
using halfback::testing::DumbbellFixture;
using namespace halfback::sim::literals;

TEST(HandshakeTest, SynLossRetriesWithBackoff) {
  DumbbellFixture f;
  int drops = 2;
  DropHook lose_syns{[&](const net::Packet& p) {
    if (p.type == net::PacketType::syn && drops > 0) {
      --drops;
      return true;
    }
    return false;
  }};
  f.dumbbell.bottleneck_forward->set_fault_hook(&lose_syns);
  SenderBase& s = f.start(Scheme::tcp, 10'000);
  f.sim.run();
  ASSERT_TRUE(s.complete());
  EXPECT_EQ(s.record().syn_retx, 2u);
  // Two lost SYNs cost the 1 s + 2 s retry timers.
  EXPECT_GT(s.record().fct(), 3_s);
  EXPECT_LT(s.record().fct(), 4_s);
}

TEST(HandshakeTest, SynAckLossAlsoRecovered) {
  DumbbellFixture f;
  bool dropped = false;
  DropHook lose_syn_ack{[&](const net::Packet& p) {
    if (p.type == net::PacketType::syn_ack && !dropped) {
      dropped = true;
      return true;
    }
    return false;
  }};
  f.dumbbell.bottleneck_reverse->set_fault_hook(&lose_syn_ack);
  SenderBase& s = f.start(Scheme::halfback, 100'000);
  f.sim.run();
  ASSERT_TRUE(s.complete());
  EXPECT_TRUE(dropped);
  EXPECT_EQ(s.record().syn_retx, 1u);  // sender retried; receiver re-replied
  transport::Receiver* r = f.receiver_for(s.record().flow);
  EXPECT_EQ(r->stats().unique_segments, 70u);
}

TEST(HandshakeTest, GivesUpAfterMaxRetries) {
  // A black-holed path: the sender must stop retrying and never complete,
  // without leaving the simulation spinning.
  DumbbellFixture f;
  DropHook black_hole{[](const net::Packet&) { return true; }};
  f.dumbbell.bottleneck_forward->set_fault_hook(&black_hole);
  SenderBase& s = f.start(Scheme::tcp, 10'000);
  f.sim.run();  // drains: finitely many SYN retries, then silence
  EXPECT_FALSE(s.complete());
  EXPECT_EQ(s.record().syn_retx, 8u);  // the retry limit
}

TEST(HandshakeTest, HandshakeRttSurvivesSynRetryKarn) {
  // After a SYN retry the handshake sample is ambiguous; the estimator
  // must not be poisoned (Karn) — but the record still reports a value.
  DumbbellFixture f;
  int drops = 1;
  DropHook lose_syn{[&](const net::Packet& p) {
    if (p.type == net::PacketType::syn && drops > 0) {
      --drops;
      return true;
    }
    return false;
  }};
  f.dumbbell.bottleneck_forward->set_fault_hook(&lose_syn);
  SenderBase& s = f.start(Scheme::halfback, 100'000);
  f.sim.run();
  ASSERT_TRUE(s.complete());
  // The retried handshake's measured RTT is ~60 ms (from the second SYN),
  // and pacing used it sanely.
  EXPECT_NEAR(s.record().handshake_rtt.to_ms(), 60.0, 5.0);
  EXPECT_EQ(s.record().timeouts, 0u);
}

TEST(HandshakeTest, PacedSchemesStillPaceAfterSynRetry) {
  DumbbellFixture f;
  int drops = 1;
  DropHook lose_syn{[&](const net::Packet& p) {
    if (p.type == net::PacketType::syn && drops > 0) {
      --drops;
      return true;
    }
    return false;
  }};
  f.dumbbell.bottleneck_forward->set_fault_hook(&lose_syn);
  SenderBase& s = f.start(Scheme::jumpstart, 100'000);
  f.sim.run();
  ASSERT_TRUE(s.complete());
  // 1 s SYN retry + ~3 RTT transfer.
  EXPECT_GT(s.record().fct(), 1_s);
  EXPECT_LT(s.record().fct(), 1.5_s);
  EXPECT_EQ(s.record().normal_retx, 0u);
}

TEST(HandshakeTest, SynBackoffIsCappedDuringLongBlackouts) {
  // A path black-holed for 100 s. Doubling puts the SYN retries at
  // t = 1, 3, 7, 15, 31 and 63 s; the next would wait 64 s (t = 127 s),
  // but the 60 s ceiling sends it at 123 s, and it gets through.
  DumbbellFixture f;
  DropHook blackout{[&](const net::Packet& p) {
    return p.type == net::PacketType::syn && f.sim.now() < 100_s;
  }};
  f.dumbbell.bottleneck_forward->set_fault_hook(&blackout);
  SenderBase& s = f.start(Scheme::tcp, 10'000);
  f.sim.run();
  ASSERT_TRUE(s.complete());
  EXPECT_EQ(s.record().syn_retx, 7u);
  EXPECT_GT(s.record().fct(), 123_s);
  EXPECT_LT(s.record().fct(), 124_s);
}

TEST(HandshakeTest, CappedBackoffStillBacksOffBeforeTheCeiling) {
  // The cap must not turn backoff into a fixed interval below the
  // ceiling: the retries double (1, 2, 4, 8, 16, 32 s) and only then
  // flatten at the 60 s ceiling.
  DumbbellFixture f;
  std::vector<sim::Time> syn_times;
  DropHook lose_seven_syns{[&](const net::Packet& p) {
    if (p.type != net::PacketType::syn) return false;
    syn_times.push_back(f.sim.now());
    return syn_times.size() <= 7;  // let the eighth SYN through
  }};
  f.dumbbell.bottleneck_forward->set_fault_hook(&lose_seven_syns);
  SenderBase& s = f.start(Scheme::tcp, 10'000);
  f.sim.run();
  ASSERT_TRUE(s.complete());
  ASSERT_EQ(syn_times.size(), 8u);
  for (std::size_t i = 1; i < 7; ++i) {
    EXPECT_EQ(syn_times[i] - syn_times[i - 1],
              sim::Time::seconds(static_cast<double>(1u << (i - 1))))
        << "retry " << i;
  }
  EXPECT_EQ(syn_times[7] - syn_times[6], 60_s);  // capped, not 64 s
}

}  // namespace
}  // namespace halfback::transport
