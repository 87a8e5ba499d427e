#include "net/topology.h"

#include <gtest/gtest.h>

#include "sim/simulator.h"

namespace halfback::net {
namespace {

using sim::Simulator;
using sim::Time;
using namespace halfback::sim::literals;

TEST(DumbbellTest, BuildsRequestedHosts) {
  Simulator sim{1};
  Network net{sim};
  DumbbellConfig config;
  config.sender_count = 4;
  config.receiver_count = 3;
  Dumbbell d = build_dumbbell(net, config);
  EXPECT_EQ(d.senders.size(), 4u);
  EXPECT_EQ(d.receivers.size(), 3u);
  EXPECT_EQ(net.node_count(), 9u);  // 2 routers + 7 hosts
  ASSERT_NE(d.bottleneck_forward, nullptr);
  EXPECT_EQ(d.bottleneck_forward->rate(), sim::DataRate::megabits_per_second(15));
}

TEST(DumbbellTest, RoundTripTimeMatchesConfig) {
  Simulator sim{1};
  Network net{sim};
  Dumbbell d = build_dumbbell(net, DumbbellConfig{});

  // Ping: send a 52-byte packet sender -> receiver, bounce it back.
  Time echo_at;
  bool got_echo = false;
  net.node(d.receivers[0]).set_local_handler([&](Packet p) {
    Packet reply = p;
    reply.src = p.dst;
    reply.dst = p.src;
    net.node(d.receivers[0]).send(reply);
  });
  net.node(d.senders[0]).set_local_handler([&](Packet) {
    echo_at = sim.now();
    got_echo = true;
  });
  Packet ping;
  ping.type = PacketType::ack;
  ping.src = d.senders[0];
  ping.dst = d.receivers[0];
  ping.size_bytes = 52;
  net.node(d.senders[0]).send(ping);
  sim.run();
  ASSERT_TRUE(got_echo);
  // Propagation RTT is 60 ms; serialization of a 52 B packet is negligible.
  EXPECT_GT(echo_at, 59_ms);
  EXPECT_LT(echo_at, 61_ms);
}

TEST(DumbbellTest, BdpMatchesPaper) {
  Simulator sim{1};
  Network net{sim};
  Dumbbell d = build_dumbbell(net, DumbbellConfig{});
  // 15 Mbps * 60 ms = 112.5 KB ~ the paper's 115 KB default buffer.
  EXPECT_NEAR(static_cast<double>(d.bdp_bytes()), 112500.0, 10.0);
}

TEST(DumbbellTest, RejectsEmptySides) {
  Simulator sim{1};
  Network net{sim};
  DumbbellConfig config;
  config.sender_count = 0;
  EXPECT_THROW(build_dumbbell(net, config), std::invalid_argument);
}

TEST(AccessPathTest, BuildsThreeNodes) {
  Simulator sim{1};
  Network net{sim};
  AccessPath path = build_access_path(net, AccessPathConfig{});
  EXPECT_EQ(net.node_count(), 3u);
  ASSERT_NE(path.downlink, nullptr);
  EXPECT_EQ(path.downlink->rate(), sim::DataRate::megabits_per_second(25));
}

TEST(AccessPathTest, RttMatchesConfig) {
  Simulator sim{1};
  Network net{sim};
  AccessPathConfig config;
  config.rtt = 100_ms;
  AccessPath path = build_access_path(net, config);

  Time echo_at;
  net.node(path.client).set_local_handler([&](Packet p) {
    Packet reply = p;
    reply.src = p.dst;
    reply.dst = p.src;
    net.node(path.client).send(reply);
  });
  net.node(path.server).set_local_handler([&](Packet) { echo_at = sim.now(); });
  Packet ping;
  ping.type = PacketType::ack;
  ping.src = path.server;
  ping.dst = path.client;
  ping.size_bytes = 52;
  net.node(path.server).send(ping);
  sim.run();
  EXPECT_GT(echo_at, 99_ms);
  EXPECT_LT(echo_at, 101_ms);
}

TEST(ParkingLotTest, BuildsChainWithCrossPairs) {
  Simulator sim{1};
  Network net{sim};
  ParkingLot lot = build_parking_lot(net, 3);
  EXPECT_EQ(lot.routers.size(), 4u);
  EXPECT_EQ(lot.bottlenecks.size(), 3u);
  EXPECT_EQ(lot.cross_senders.size(), 3u);
  // 4 routers + 2 main hosts + 3x2 cross hosts.
  EXPECT_EQ(net.node_count(), 12u);
  EXPECT_EQ(lot.end_to_end_rtt(), 60_ms);
}

TEST(ParkingLotTest, EndToEndRttSpansAllHops) {
  Simulator sim{1};
  Network net{sim};
  ParkingLot lot = build_parking_lot(net, 3);

  Time echo_at;
  net.node(lot.main_receiver).set_local_handler([&](Packet p) {
    Packet reply = p;
    std::swap(reply.src, reply.dst);
    net.node(lot.main_receiver).send(reply);
  });
  net.node(lot.main_sender).set_local_handler([&](Packet) { echo_at = sim.now(); });
  Packet ping;
  ping.type = PacketType::ack;
  ping.src = lot.main_sender;
  ping.dst = lot.main_receiver;
  ping.size_bytes = 52;
  net.node(lot.main_sender).send(ping);
  sim.run();
  EXPECT_GT(echo_at, 59_ms);
  EXPECT_LT(echo_at, 62_ms);
}

TEST(ParkingLotTest, CrossTrafficOccupiesOnlyItsHop) {
  Simulator sim{1};
  Network net{sim};
  ParkingLot lot = build_parking_lot(net, 2);
  net.node(lot.cross_receivers[0]).set_local_handler([](Packet) {});
  Packet p;
  p.type = PacketType::data;
  p.src = lot.cross_senders[0];
  p.dst = lot.cross_receivers[0];
  p.size_bytes = 1500;
  net.node(lot.cross_senders[0]).send(p);
  sim.run();
  EXPECT_EQ(lot.bottlenecks[0]->stats().delivered_packets, 1u);
  EXPECT_EQ(lot.bottlenecks[1]->stats().delivered_packets, 0u);
}

TEST(ParkingLotTest, RejectsZeroHops) {
  Simulator sim{1};
  Network net{sim};
  EXPECT_THROW(build_parking_lot(net, 0), std::invalid_argument);
}

TEST(AccessPathTest, WirelessLossProfileDropsPackets) {
  Simulator sim{3};
  Network net{sim};
  AccessPathConfig config;
  config.downlink_loss_rate = 0.5;
  AccessPath path = build_access_path(net, config);
  int received = 0;
  net.node(path.client).set_local_handler([&](Packet) { ++received; });
  for (int i = 0; i < 100; ++i) {
    Packet p;
    p.type = PacketType::data;
    p.src = path.server;
    p.dst = path.client;
    p.size_bytes = 1500;
    net.node(path.server).send(p);
  }
  sim.run();
  EXPECT_GT(received, 20);
  EXPECT_LT(received, 80);
}

}  // namespace
}  // namespace halfback::net
