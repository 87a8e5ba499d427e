#include "net/link.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/simulator.h"

namespace halfback::net {
namespace {

using sim::DataRate;
using sim::Simulator;
using sim::Time;
using namespace halfback::sim::literals;

Packet make_packet(std::uint32_t bytes, std::uint32_t seq = 0) {
  Packet p;
  p.type = PacketType::data;
  p.size_bytes = bytes;
  p.seq = seq;
  return p;
}

struct LinkFixture {
  Simulator sim{1};
  PacketPool pool;
  Node sink{0};  ///< the far end; test packets are addressed to it
  std::vector<std::pair<Time, Packet>> arrivals;

  LinkFixture() {
    sink.set_local_handler([this](Packet p) { arrivals.emplace_back(sim.now(), std::move(p)); });
  }

  std::unique_ptr<Link> make_link(DataRate rate, Time delay,
                                  std::uint64_t queue_bytes = 1 << 20,
                                  double loss = 0.0) {
    return std::make_unique<Link>(sim, rate, delay,
                                  std::make_unique<DropTailQueue>(queue_bytes),
                                  pool, sink, loss);
  }
};

TEST(LinkTest, DeliveryTimeIsSerializationPlusPropagation) {
  LinkFixture f;
  auto link = f.make_link(DataRate::megabits_per_second(15), 10_ms);
  link->send(make_packet(1500));
  f.sim.run();
  ASSERT_EQ(f.arrivals.size(), 1u);
  // 1500 B at 15 Mbps = 0.8 ms serialization + 10 ms propagation.
  EXPECT_EQ(f.arrivals[0].first, 10.8_ms);
}

TEST(LinkTest, BackToBackPacketsQueueBehindEachOther) {
  LinkFixture f;
  auto link = f.make_link(DataRate::megabits_per_second(15), 10_ms);
  link->send(make_packet(1500, 1));
  link->send(make_packet(1500, 2));
  f.sim.run();
  ASSERT_EQ(f.arrivals.size(), 2u);
  EXPECT_EQ(f.arrivals[0].first, 10.8_ms);
  EXPECT_EQ(f.arrivals[1].first, 11.6_ms);  // one extra serialization time
  EXPECT_EQ(f.arrivals[0].second.seq, 1u);
  EXPECT_EQ(f.arrivals[1].second.seq, 2u);
}

TEST(LinkTest, PipeliningInPropagation) {
  // With delay >> serialization, many packets are in flight at once; the
  // spacing between arrivals equals the serialization time.
  LinkFixture f;
  auto link = f.make_link(DataRate::megabits_per_second(150), 50_ms);
  for (int i = 0; i < 10; ++i) link->send(make_packet(1500, static_cast<std::uint32_t>(i)));
  f.sim.run();
  ASSERT_EQ(f.arrivals.size(), 10u);
  Time spacing = f.arrivals[1].first - f.arrivals[0].first;
  EXPECT_EQ(spacing, Time::microseconds(80));
  EXPECT_LT(f.arrivals[9].first, 51_ms);
}

TEST(LinkTest, QueueOverflowDrops) {
  LinkFixture f;
  // Queue of 3000 bytes: 1 transmitting + 2 queued; rest dropped.
  auto link = f.make_link(DataRate::megabits_per_second(1), 1_ms, 3000);
  for (int i = 0; i < 6; ++i) link->send(make_packet(1500, static_cast<std::uint32_t>(i)));
  f.sim.run();
  EXPECT_EQ(f.arrivals.size(), 3u);
  EXPECT_EQ(link->queue().stats().dropped_packets, 3u);
}

TEST(LinkTest, RandomLossDropsSomePackets) {
  LinkFixture f;
  auto link = f.make_link(DataRate::megabits_per_second(100), 1_ms, 1 << 20, 0.5);
  for (int i = 0; i < 200; ++i) link->send(make_packet(1500, static_cast<std::uint32_t>(i)));
  f.sim.run();
  EXPECT_GT(f.arrivals.size(), 50u);
  EXPECT_LT(f.arrivals.size(), 150u);
  EXPECT_EQ(f.arrivals.size() + link->stats().corrupted_packets, 200u);
}

TEST(LinkTest, StatsCountDeliveries) {
  LinkFixture f;
  auto link = f.make_link(DataRate::megabits_per_second(10), 1_ms);
  link->send(make_packet(1000));
  link->send(make_packet(500));
  f.sim.run();
  EXPECT_EQ(link->stats().delivered_packets, 2u);
  EXPECT_EQ(link->stats().delivered_bytes, 1500u);
}

TEST(LinkTest, UtilizationReflectsBusyTime) {
  LinkFixture f;
  auto link = f.make_link(DataRate::megabits_per_second(15), Time::zero());
  link->send(make_packet(1500));  // 0.8 ms busy
  f.sim.run_until(8_ms);
  EXPECT_NEAR(link->utilization(f.sim.now()), 0.1, 0.001);
}

TEST(LinkTest, RejectsZeroRate) {
  LinkFixture f;
  EXPECT_THROW(Link(f.sim, sim::DataRate{}, 1_ms, std::make_unique<DropTailQueue>(1000),
                    f.pool, f.sink),
               std::invalid_argument);
}

}  // namespace
}  // namespace halfback::net
