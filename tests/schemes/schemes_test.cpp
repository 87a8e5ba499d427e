// Behavioural tests for the remaining schemes plus the factory/registry.
#include <gtest/gtest.h>

#include "schemes/factory.h"
#include "schemes/scheme.h"
#include "support/drop_hook.h"
#include "support/dumbbell_fixture.h"

namespace halfback::schemes {
namespace {

using halfback::testing::DropHook;
using halfback::testing::DumbbellFixture;
using transport::SenderBase;
using namespace halfback::sim::literals;

// ---------------------------------------------------------------- registry

TEST(SchemeRegistryTest, AllSchemesHaveMetadata) {
  EXPECT_EQ(all_schemes().size(), 11u);
  for (const SchemeInfo& i : all_schemes()) {
    EXPECT_NE(i.name, nullptr);
    
    EXPECT_EQ(&info(i.scheme), &i);
  }
}

TEST(SchemeRegistryTest, ParseRoundTrips) {
  for (const SchemeInfo& i : all_schemes()) {
    auto parsed = parse_scheme(i.name);
    ASSERT_TRUE(parsed.has_value()) << i.name;
    EXPECT_EQ(*parsed, i.scheme);
    EXPECT_EQ(parse_scheme(i.display_name), i.scheme);
  }
  EXPECT_FALSE(parse_scheme("quic").has_value());
}

TEST(SchemeRegistryTest, EvaluationSetsAreSubsets) {
  EXPECT_EQ(evaluation_set().size(), 8u);
  EXPECT_EQ(planetlab_set().size(), 6u);
}

// ----------------------------------------------------------------- factory

class FactoryCompletionTest : public ::testing::TestWithParam<Scheme> {};

TEST_P(FactoryCompletionTest, HundredKbFlowCompletesWithFullDelivery) {
  DumbbellFixture f;
  SenderBase& s = f.start(GetParam(), 100'000);
  f.sim.run();
  ASSERT_TRUE(s.complete()) << name(GetParam());
  EXPECT_EQ(s.record().scheme, name(GetParam()));
  transport::Receiver* r = f.receiver_for(s.record().flow);
  ASSERT_NE(r, nullptr);
  EXPECT_TRUE(r->stats().complete);
  EXPECT_EQ(r->stats().unique_segments, 70u);
  // Sanity: FCT within [2 RTTs, 10 s] for every scheme on a clean path.
  EXPECT_GT(s.record().fct(), 120_ms);
  EXPECT_LT(s.record().fct(), 10_s);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, FactoryCompletionTest,
    ::testing::Values(Scheme::tcp, Scheme::tcp10, Scheme::tcp_cache,
                      Scheme::reactive, Scheme::proactive, Scheme::jumpstart,
                      Scheme::pcp, Scheme::halfback, Scheme::halfback_forward,
                      Scheme::halfback_burst),
    [](const ::testing::TestParamInfo<Scheme>& i) {
      std::string n = name(i.param);
      for (char& c : n) {
        if (c == '-') c = '_';
      }
      return n;
    });

// ------------------------------------------------------------- TCP-10

TEST(Tcp10Test, FasterThanTcpSlowerThanJumpStart) {
  auto fct = [](Scheme scheme) {
    DumbbellFixture f;
    SenderBase& s = f.start(scheme, 100'000);
    f.sim.run();
    EXPECT_TRUE(s.complete());
    return s.record().fct();
  };
  sim::Time tcp = fct(Scheme::tcp);
  sim::Time tcp10 = fct(Scheme::tcp10);
  sim::Time jumpstart = fct(Scheme::jumpstart);
  EXPECT_LT(tcp10, tcp);
  EXPECT_LT(jumpstart, tcp10);
}

// ---------------------------------------------------------------- Reactive

TEST(ReactiveTest, TailLossAvoidedWithoutTimeout) {
  auto run = [](Scheme scheme) {
    DumbbellFixture f;
    bool dropped = false;
    DropHook lose_last{[&](const net::Packet& p) {
      // Drop the last segment's first transmission.
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
    return s.record();
  };
  transport::FlowRecord reactive = run(Scheme::reactive);
  transport::FlowRecord tcp = run(Scheme::tcp);
  EXPECT_EQ(reactive.timeouts, 0u);  // the probe preempts the RTO
  EXPECT_GE(tcp.timeouts, 1u);
  EXPECT_LT(reactive.fct(), tcp.fct());
  EXPECT_GE(reactive.normal_retx, 1u);  // the probe itself
}

TEST(ReactiveTest, NoLossMeansNoProbes) {
  DumbbellFixture f;
  SenderBase& s = f.start(Scheme::reactive, 100'000);
  f.sim.run();
  ASSERT_TRUE(s.complete());
  EXPECT_EQ(s.record().normal_retx, 0u);
}

// --------------------------------------------------------------- Proactive

TEST(ProactiveTest, EveryPacketSentTwice) {
  DumbbellFixture f;
  SenderBase& s = f.start(Scheme::proactive, 100'000);
  f.sim.run();
  ASSERT_TRUE(s.complete());
  // One proactive duplicate per original (and per normal retransmission).
  EXPECT_EQ(s.record().proactive_retx, 70u + s.record().normal_retx);
  EXPECT_EQ(s.record().data_packets_sent, 2 * (70u + s.record().normal_retx));
}

TEST(ProactiveTest, DuplicateMasksSingleLoss) {
  DumbbellFixture f;
  bool dropped = false;
  DropHook lose_original{[&](const net::Packet& p) {
    if (!dropped && p.type == net::PacketType::data && p.seq == 9 && !p.is_proactive) {
      dropped = true;
      return true;
    }
    return false;
  }};
  f.dumbbell.bottleneck_forward->set_fault_hook(&lose_original);
  SenderBase& s = f.start(Scheme::proactive, 10 * net::kSegmentPayloadBytes);
  f.sim.run();
  ASSERT_TRUE(s.complete());
  EXPECT_EQ(s.record().timeouts, 0u);
  EXPECT_EQ(s.record().normal_retx, 0u);  // the duplicate already covered it
}

// --------------------------------------------------------------- TCP-Cache

TEST(TcpCacheTest, SecondFlowOnPathStartsFromCachedWindow) {
  DumbbellFixture f;
  SenderBase& first = f.start(Scheme::tcp_cache, 100'000);
  f.sim.run();
  ASSERT_TRUE(first.complete());
  ASSERT_NE(f.context.path_cache, nullptr);
  EXPECT_EQ(f.context.path_cache->size(), 1u);

  SenderBase& second = f.start(Scheme::tcp_cache, 100'000);
  f.sim.run();
  ASSERT_TRUE(second.complete());
  EXPECT_LT(second.record().fct(), first.record().fct());
}

TEST(TcpCacheTest, FirstFlowBehavesLikeTcp) {
  DumbbellFixture fc;
  SenderBase& cache = fc.start(Scheme::tcp_cache, 100'000);
  fc.sim.run();

  DumbbellFixture ft;
  SenderBase& tcp = ft.start(Scheme::tcp, 100'000);
  ft.sim.run();

  EXPECT_NEAR(cache.record().fct().to_ms(), tcp.record().fct().to_ms(), 1.0);
}

TEST(TcpCacheTest, CacheIsPerPath) {
  net::DumbbellConfig config;
  config.sender_count = 2;
  config.receiver_count = 2;
  DumbbellFixture f{config};
  SenderBase& first = f.start(Scheme::tcp_cache, 100'000, /*pair=*/0);
  f.sim.run();
  ASSERT_TRUE(first.complete());
  // A different sender/receiver pair must not see pair 0's cache entry.
  SenderBase& other = f.start(Scheme::tcp_cache, 100'000, /*pair=*/1);
  f.sim.run();
  ASSERT_TRUE(other.complete());
  EXPECT_NEAR(other.record().fct().to_ms(), first.record().fct().to_ms(), 5.0);
  EXPECT_EQ(f.context.path_cache->size(), 2u);
}

// --------------------------------------------------------------------- PCP

TEST(PcpTest, RateRampsUpOnIdlePath) {
  DumbbellFixture f;
  SenderBase& s = f.start(Scheme::pcp, 100'000);
  f.sim.run();
  ASSERT_TRUE(s.complete());
  EXPECT_EQ(s.record().normal_retx, 0u);
}

TEST(PcpTest, SlowerThanJumpStartOnCleanPath) {
  auto fct = [](Scheme scheme) {
    DumbbellFixture f;
    SenderBase& s = f.start(scheme, 100'000);
    f.sim.run();
    return s.record().fct();
  };
  // Probing costs rounds: PCP cannot match the pace-everything schemes.
  EXPECT_GT(fct(Scheme::pcp), fct(Scheme::jumpstart) * 1.5);
}

TEST(PcpTest, PacedSendsCauseNoBufferOverflowOnTightBuffer) {
  net::DumbbellConfig config;
  config.bottleneck_buffer_bytes = 15'000;
  DumbbellFixture f{config};
  SenderBase& s = f.start(Scheme::pcp, 100'000);
  f.sim.run();
  ASSERT_TRUE(s.complete());
  // Paced, delay-sensitive probing keeps loss minimal where the paced-burst
  // schemes lose heavily (paper Fig. 10b: PCP has the fewest retx).
  EXPECT_LE(s.record().normal_retx, 3u);
}

}  // namespace
}  // namespace halfback::schemes
