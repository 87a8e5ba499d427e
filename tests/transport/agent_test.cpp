#include "transport/agent.h"

#include <gtest/gtest.h>

#include "support/dumbbell_fixture.h"

namespace halfback::transport {
namespace {

using halfback::testing::DumbbellFixture;
using halfback::testing::one_pair;
using namespace halfback::sim::literals;

/// Start a TCP flow with an explicit id from the one sender host.
SenderBase& start(DumbbellFixture& f, net::FlowId flow, std::uint64_t bytes,
                  SenderBase::CompletionRef cb = {}) {
  return f.rig.start(f.sender_agent(), f.context,
                     exp::FlowSpec{schemes::Scheme::tcp, f.dumbbell.receivers[0],
                                   flow, bytes},
                     cb);
}

TEST(TransportAgentTest, DemultiplexesConcurrentFlows) {
  DumbbellFixture f{one_pair()};
  SenderBase& flow1 = start(f, 1, 30'000);
  SenderBase& flow2 = start(f, 2, 60'000);
  f.sim.run();
  EXPECT_TRUE(flow1.complete());
  EXPECT_TRUE(flow2.complete());
  ASSERT_NE(f.receiver_agent().receiver(1), nullptr);
  ASSERT_NE(f.receiver_agent().receiver(2), nullptr);
  EXPECT_EQ(f.receiver_agent().receiver(1)->stats().unique_segments,
            flow1.record().total_segments);
  EXPECT_EQ(f.receiver_agent().receiver(2)->stats().unique_segments,
            flow2.record().total_segments);
}

TEST(TransportAgentTest, SenderLookup) {
  DumbbellFixture f{one_pair()};
  SenderBase& flow = start(f, 7, 10'000);
  EXPECT_EQ(f.sender_agent().sender(7), &flow);
  EXPECT_EQ(f.sender_agent().sender(8), nullptr);
}

TEST(TransportAgentTest, ReceiverCreatedOnSyn) {
  DumbbellFixture f{one_pair()};
  EXPECT_EQ(f.receiver_agent().receiver(1), nullptr);
  start(f, 1, 10'000);
  f.sim.run_until(100_ms);  // SYN has crossed
  EXPECT_NE(f.receiver_agent().receiver(1), nullptr);
}

TEST(TransportAgentTest, CompletionCallbackAndRecordKeeping) {
  DumbbellFixture f{one_pair()};
  int callbacks = 0;
  // CompletionRef is non-owning: the callable must outlive the flow.
  auto on_done = [&](const FlowRecord& r) {
    ++callbacks;
    EXPECT_EQ(r.flow, 1u);
    EXPECT_TRUE(r.completed);
  };
  start(f, 1, 10'000, SenderBase::CompletionRef{on_done});
  f.sim.run();
  EXPECT_EQ(callbacks, 1);
  ASSERT_EQ(f.sender_agent().completed().size(), 1u);
  EXPECT_EQ(f.sender_agent().completed()[0].flow, 1u);
}

TEST(TransportAgentTest, ActiveSenderCountTracksLifecycle) {
  DumbbellFixture f{one_pair()};
  EXPECT_EQ(f.sender_agent().active_sender_count(), 0u);
  start(f, 1, 10'000);
  start(f, 2, 10'000);
  EXPECT_EQ(f.sender_agent().active_sender_count(), 2u);
  f.sim.run();
  EXPECT_EQ(f.sender_agent().active_sender_count(), 0u);
}

TEST(TransportAgentTest, ReceiverCompletionCallbackFires) {
  DumbbellFixture f{one_pair()};
  start(f, 1, 10'000);
  f.sim.run();
  ASSERT_NE(f.receiver_agent().receiver(1), nullptr);
  EXPECT_TRUE(f.receiver_agent().receiver(1)->stats().complete);
}

TEST(TransportAgentTest, StrayPacketsIgnored) {
  // ACKs / data for unknown flows must not crash the agent.
  DumbbellFixture f{one_pair()};
  net::Packet stray;
  stray.flow = 99;
  stray.type = net::PacketType::ack;
  stray.src = f.dumbbell.receivers[0];
  stray.dst = f.dumbbell.senders[0];
  stray.size_bytes = 52;
  f.net.node(f.dumbbell.receivers[0]).send(stray);
  stray.type = net::PacketType::data;
  stray.src = f.dumbbell.senders[0];
  stray.dst = f.dumbbell.receivers[0];
  f.net.node(f.dumbbell.senders[0]).send(stray);
  f.sim.run();  // no crash, nothing recorded
  EXPECT_EQ(f.sender_agent().completed().size(), 0u);
}

// --- delivery hardening (checksum + dedup) ----------------------------------

/// Corrupts or duplicates every matching packet — the adversarial-path
/// conditions src/netfault/ injects, scripted deterministically here.
class EveryPacketHook final : public net::FaultHook {
 public:
  explicit EveryPacketHook(net::FaultDecision decision,
                           net::PacketType only = net::PacketType::data,
                           int limit = -1)
      : decision_{decision}, only_{only}, limit_{limit} {}

  net::FaultDecision on_transmit(const net::Packet& packet,
                                 sim::Time /*now*/) override {
    if (packet.type != only_ || limit_ == 0) return {};
    if (limit_ > 0) --limit_;
    return decision_;
  }

 private:
  net::FaultDecision decision_;
  net::PacketType only_;
  int limit_;
};

/// A packet stamped with `uid`, handed straight to the receiving host's
/// transport as its last link would.
void deliver(DumbbellFixture& f, net::PacketType type, std::uint64_t uid,
             net::FlowId flow) {
  net::Packet p;
  p.flow = flow;
  p.type = type;
  p.src = f.dumbbell.senders[0];
  p.dst = f.dumbbell.receivers[0];
  p.size_bytes = 52;
  p.uid = uid;
  f.net.node(f.dumbbell.receivers[0]).local_handler()(p);
}

TEST(TransportAgentTest, DataAndAckSharingAUidAreBothAccepted) {
  DumbbellFixture f{one_pair()};
  const std::uint64_t uid = (5ULL << 24) + 3;
  deliver(f, net::PacketType::data, uid, 5);
  deliver(f, net::PacketType::ack, uid, 5);
  const DeliveryStats& r = f.receiver_agent().delivery_stats();
  EXPECT_EQ(r.accepted, 2u);
  EXPECT_EQ(r.duplicate_rejected, 0u);
}

TEST(TransportAgentTest, RepeatOfAUidPastTheDenseRangeIsRejected) {
  DumbbellFixture f{one_pair()};
  const std::uint64_t uid = (1ULL << 24) + (1ULL << 23);
  deliver(f, net::PacketType::data, uid, 1);
  deliver(f, net::PacketType::data, uid, 1);
  const DeliveryStats& r = f.receiver_agent().delivery_stats();
  EXPECT_EQ(r.accepted, 1u);
  EXPECT_EQ(r.duplicate_rejected, 1u);
}

TEST(TransportAgentTest, DedupKeysOnTypeAndUidNotTheFlowField) {
  DumbbellFixture f{one_pair()};
  const std::uint64_t uid = (5ULL << 24) + 9;
  deliver(f, net::PacketType::data, uid, 5);
  deliver(f, net::PacketType::data, uid, 6);
  const DeliveryStats& r = f.receiver_agent().delivery_stats();
  EXPECT_EQ(r.accepted, 1u);
  EXPECT_EQ(r.duplicate_rejected, 1u);
}

TEST(TransportAgentTest, CleanRunRejectsNothing) {
  DumbbellFixture f{one_pair()};
  start(f, 1, 30'000);
  f.sim.run();
  const DeliveryStats& r = f.receiver_agent().delivery_stats();
  EXPECT_GT(r.accepted, 0u);
  EXPECT_EQ(r.corrupted_rejected, 0u);
  EXPECT_EQ(r.duplicate_rejected, 0u);
  EXPECT_EQ(f.sender_agent().delivery_stats().duplicate_rejected, 0u);
}

TEST(TransportAgentTest, DuplicatedDataIsDeliveredExactlyOnce) {
  DumbbellFixture f{one_pair()};
  net::FaultDecision dup;
  dup.duplicates = 1;
  EveryPacketHook hook{dup};
  f.dumbbell.bottleneck_forward->set_fault_hook(&hook);
  SenderBase& flow = start(f, 1, 30'000);
  f.sim.run();
  ASSERT_TRUE(flow.complete());
  const DeliveryStats& r = f.receiver_agent().delivery_stats();
  // Every data packet arrived twice; the duplicate filter ate one of each,
  // so the receiver saw each segment exactly once.
  EXPECT_GT(r.duplicate_rejected, 0u);
  ASSERT_NE(f.receiver_agent().receiver(1), nullptr);
  EXPECT_EQ(f.receiver_agent().receiver(1)->stats().duplicate_segments, 0u);
  // The reverse path was untouched: the sender rejected nothing.
  EXPECT_EQ(f.sender_agent().delivery_stats().duplicate_rejected, 0u);
}

TEST(TransportAgentTest, DuplicatedAcksAreFilteredAtTheSender) {
  DumbbellFixture f{one_pair()};
  net::FaultDecision dup;
  dup.duplicates = 2;
  EveryPacketHook hook{dup, net::PacketType::ack};
  f.dumbbell.bottleneck_reverse->set_fault_hook(&hook);
  SenderBase& flow = start(f, 1, 30'000);
  f.sim.run();
  ASSERT_TRUE(flow.complete());
  EXPECT_GT(f.sender_agent().delivery_stats().duplicate_rejected, 0u);
  // Dedup means the copies never reached the sender's ACK processing: no
  // spurious loss detection from repeated acknowledgements.
  EXPECT_EQ(flow.record().normal_retx, 0u);
}

TEST(TransportAgentTest, CorruptedDataIsRejectedAndRecovered) {
  DumbbellFixture f{one_pair()};
  net::FaultDecision corrupt;
  corrupt.corrupt = true;
  EveryPacketHook hook{corrupt, net::PacketType::data, /*limit=*/3};
  f.dumbbell.bottleneck_forward->set_fault_hook(&hook);
  SenderBase& flow = start(f, 1, 30'000);
  f.sim.run();
  // The checksum dropped the mangled payloads; retransmission recovered.
  ASSERT_TRUE(flow.complete());
  EXPECT_EQ(f.receiver_agent().delivery_stats().corrupted_rejected, 3u);
  EXPECT_GT(flow.record().normal_retx + flow.record().timeouts, 0u);
}

}  // namespace
}  // namespace halfback::transport
