#include "transport/receiver.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/network.h"
#include "sim/simulator.h"

namespace halfback::transport {
namespace {

using namespace halfback::sim::literals;

struct ReceiverFixture {
  sim::Simulator sim{1};
  net::Network net{sim};
  net::NodeId sender_node;
  net::NodeId receiver_node;
  std::vector<net::Packet> acks;
  std::unique_ptr<Receiver> receiver;

  ReceiverFixture() {
    sender_node = net.add_node();
    receiver_node = net.add_node();
    net::LinkConfig fast;
    fast.rate = sim::DataRate::gigabits_per_second(1);
    fast.delay = 1_ms;
    net.connect(sender_node, receiver_node, fast);
    net.compute_routes();
    net.node(sender_node).set_local_handler(
        [this](net::Packet p) { acks.push_back(std::move(p)); });
    receiver = std::make_unique<Receiver>(sim, net.node(receiver_node), sender_node,
                                          /*flow=*/42);
    net.node(receiver_node).set_local_handler(
        [this](net::Packet p) { receiver->on_packet(p); });
  }

  void deliver_syn(std::uint32_t total_segments) {
    net::Packet syn;
    syn.flow = 42;
    syn.type = net::PacketType::syn;
    syn.src = sender_node;
    syn.dst = receiver_node;
    syn.size_bytes = net::kControlWireBytes;
    syn.total_segments = total_segments;
    syn.uid = 77;
    net.node(sender_node).send(syn);
    sim.run();
  }

  void deliver_data(std::uint32_t seq, std::uint32_t total, std::uint64_t uid = 0) {
    net::Packet d;
    d.flow = 42;
    d.type = net::PacketType::data;
    d.src = sender_node;
    d.dst = receiver_node;
    d.size_bytes = net::kSegmentWireBytes;
    d.seq = seq;
    d.total_segments = total;
    d.uid = uid != 0 ? uid : 1000 + seq;
    net.node(sender_node).send(d);
    sim.run();
  }
};

TEST(ReceiverTest, SynAckReply) {
  ReceiverFixture f;
  f.deliver_syn(10);
  ASSERT_EQ(f.acks.size(), 1u);
  EXPECT_EQ(f.acks[0].type, net::PacketType::syn_ack);
  EXPECT_EQ(f.acks[0].echo_uid, 77u);
}

TEST(ReceiverTest, DuplicateSynGetsDuplicateSynAck) {
  ReceiverFixture f;
  f.deliver_syn(10);
  f.deliver_syn(10);
  EXPECT_EQ(f.acks.size(), 2u);
  EXPECT_EQ(f.acks[1].type, net::PacketType::syn_ack);
}

TEST(ReceiverTest, InOrderDataAdvancesCumAck) {
  ReceiverFixture f;
  f.deliver_syn(5);
  for (std::uint32_t i = 0; i < 3; ++i) f.deliver_data(i, 5);
  ASSERT_EQ(f.acks.size(), 4u);  // SYN-ACK + 3 ACKs
  EXPECT_EQ(f.acks.back().cum_ack, 3u);
  EXPECT_TRUE(f.acks.back().sacks.empty());
}

TEST(ReceiverTest, GapGeneratesSack) {
  ReceiverFixture f;
  f.deliver_syn(5);
  f.deliver_data(0, 5);
  f.deliver_data(2, 5);  // hole at 1
  const net::Packet& ack = f.acks.back();
  EXPECT_EQ(ack.cum_ack, 1u);
  ASSERT_EQ(ack.sacks.size(), 1u);
  EXPECT_EQ(ack.sacks[0], (net::SackBlock{2, 3}));
}

TEST(ReceiverTest, MultipleSackBlocks) {
  // TCP SACK semantics: the newest run first, then the most recently
  // reported other runs.
  ReceiverFixture f;
  f.deliver_syn(10);
  f.deliver_data(1, 10);
  f.deliver_data(3, 10);
  f.deliver_data(5, 10);
  const net::Packet& ack = f.acks.back();
  EXPECT_EQ(ack.cum_ack, 0u);
  ASSERT_EQ(ack.sacks.size(), 3u);
  EXPECT_EQ(ack.sacks[0], (net::SackBlock{5, 6}));
  EXPECT_EQ(ack.sacks[1], (net::SackBlock{3, 4}));
  EXPECT_EQ(ack.sacks[2], (net::SackBlock{1, 2}));
}

TEST(ReceiverTest, SackBlockLimitHonoured) {
  ReceiverFixture f;
  f.deliver_syn(20);
  for (std::uint32_t seq : {1u, 3u, 5u, 7u, 9u}) f.deliver_data(seq, 20);
  const net::Packet& ack = f.acks.back();
  EXPECT_EQ(ack.sacks.size(), 3u);  // only the 3 newest runs fit
  EXPECT_EQ(ack.sacks[0], (net::SackBlock{9, 10}));
}

TEST(ReceiverTest, SackBlocksMergeAsRunsGrow) {
  ReceiverFixture f;
  f.deliver_syn(10);
  f.deliver_data(2, 10);
  f.deliver_data(4, 10);
  f.deliver_data(3, 10);  // joins runs {2} and {4} into {2,3,4}
  const net::Packet& ack = f.acks.back();
  ASSERT_GE(ack.sacks.size(), 1u);
  EXPECT_EQ(ack.sacks[0], (net::SackBlock{2, 5}));
  // The merged run must not be reported twice.
  for (std::size_t i = 1; i < ack.sacks.size(); ++i) {
    EXPECT_NE(ack.sacks[i].begin, 2u);
  }
}

TEST(ReceiverTest, HoleFillMergesSacksIntoCum) {
  ReceiverFixture f;
  f.deliver_syn(5);
  f.deliver_data(0, 5);
  f.deliver_data(2, 5);
  f.deliver_data(1, 5);  // fills the hole
  const net::Packet& ack = f.acks.back();
  EXPECT_EQ(ack.cum_ack, 3u);
  EXPECT_TRUE(ack.sacks.empty());
}

TEST(ReceiverTest, DuplicateDataCountedAndStillAcked) {
  ReceiverFixture f;
  f.deliver_syn(5);
  f.deliver_data(0, 5);
  f.deliver_data(0, 5);
  EXPECT_EQ(f.receiver->stats().duplicate_segments, 1u);
  EXPECT_EQ(f.receiver->stats().unique_segments, 1u);
  EXPECT_EQ(f.acks.size(), 3u);  // SYN-ACK + 2 ACKs (dup ACK too)
}

TEST(ReceiverTest, AckEchoesTriggerUid) {
  ReceiverFixture f;
  f.deliver_syn(5);
  f.deliver_data(0, 5, /*uid=*/5555);
  EXPECT_EQ(f.acks.back().echo_uid, 5555u);
  EXPECT_EQ(f.acks.back().seq, 0u);
}

TEST(ReceiverTest, CompletionCallbackOnAllSegments) {
  ReceiverFixture f;
  f.deliver_syn(3);
  f.deliver_data(0, 3);
  f.deliver_data(2, 3);
  EXPECT_FALSE(f.receiver->stats().complete);
  f.deliver_data(1, 3);
  EXPECT_TRUE(f.receiver->stats().complete);
  EXPECT_EQ(f.receiver->cum_ack(), 3u);
}

TEST(ReceiverTest, CompletionFiresOnce) {
  ReceiverFixture f;
  f.deliver_syn(2);
  f.deliver_data(0, 2);
  f.deliver_data(1, 2);
  ASSERT_TRUE(f.receiver->stats().complete);
  const sim::Time complete_at = f.receiver->stats().complete_at;
  f.deliver_data(1, 2);  // duplicate after completion
  EXPECT_TRUE(f.receiver->stats().complete);
  EXPECT_EQ(f.receiver->stats().complete_at, complete_at);
}

TEST(ReceiverTest, DataBeforeSynStillWorks) {
  // SYN-ACK loss can lead to data arriving at a fresh receiver.
  ReceiverFixture f;
  f.deliver_data(0, 4);
  EXPECT_EQ(f.receiver->stats().total_segments, 4u);
  EXPECT_EQ(f.receiver->stats().unique_segments, 1u);
  EXPECT_EQ(f.acks.back().cum_ack, 1u);
}

}  // namespace
}  // namespace halfback::transport
