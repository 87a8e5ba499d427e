#include "net/queue.h"

#include <gtest/gtest.h>

namespace halfback::net {
namespace {

Packet make_packet(std::uint32_t bytes, std::uint32_t seq = 0) {
  Packet p;
  p.type = PacketType::data;
  p.size_bytes = bytes;
  p.seq = seq;
  return p;
}

TEST(DropTailQueueTest, FifoOrder) {
  DropTailQueue q{10000};
  q.enqueue(make_packet(1000, 1), {});
  q.enqueue(make_packet(1000, 2), {});
  q.enqueue(make_packet(1000, 3), {});
  EXPECT_EQ(q.packet_count(), 3u);
  EXPECT_EQ(q.dequeue({})->seq, 1u);
  EXPECT_EQ(q.dequeue({})->seq, 2u);
  EXPECT_EQ(q.dequeue({})->seq, 3u);
  EXPECT_FALSE(q.dequeue({}).has_value());
}

TEST(DropTailQueueTest, DropsWhenFull) {
  DropTailQueue q{2500};
  EXPECT_TRUE(q.enqueue(make_packet(1500), {}));
  EXPECT_TRUE(q.enqueue(make_packet(1000), {}));
  EXPECT_FALSE(q.enqueue(make_packet(1), {}));  // 2501 > 2500
  EXPECT_EQ(q.stats().dropped_packets, 1u);
  EXPECT_EQ(q.byte_length(), 2500u);
}

TEST(DropTailQueueTest, ByteAccountingAcrossOps) {
  DropTailQueue q{10000};
  q.enqueue(make_packet(1500), {});
  q.enqueue(make_packet(40), {});
  EXPECT_EQ(q.byte_length(), 1540u);
  q.dequeue({});
  EXPECT_EQ(q.byte_length(), 40u);
  q.dequeue({});
  EXPECT_EQ(q.byte_length(), 0u);
}

TEST(DropTailQueueTest, StatsTrackMaxBacklog) {
  DropTailQueue q{10000};
  q.enqueue(make_packet(4000), {});
  q.enqueue(make_packet(4000), {});
  q.dequeue({});
  q.enqueue(make_packet(1000), {});
  EXPECT_EQ(q.stats().max_backlog_bytes, 8000u);
  EXPECT_EQ(q.stats().enqueued_packets, 3u);
  EXPECT_EQ(q.stats().enqueued_bytes, 9000u);
}

TEST(DropTailQueueTest, DropCallbackFires) {
  DropTailQueue q{1000};
  std::uint32_t dropped_seq = 0;
  q.set_drop_callback([&](const Packet& p) { dropped_seq = p.seq; });
  q.enqueue(make_packet(900, 1), {});
  q.enqueue(make_packet(900, 2), {});
  EXPECT_EQ(dropped_seq, 2u);
}

TEST(DropTailQueueTest, ExactlyFullIsAccepted) {
  DropTailQueue q{3000};
  EXPECT_TRUE(q.enqueue(make_packet(1500), {}));
  EXPECT_TRUE(q.enqueue(make_packet(1500), {}));
  EXPECT_FALSE(q.enqueue(make_packet(1500), {}));
}

TEST(CoDelQueueTest, PassesTrafficWithLowSojourn) {
  CoDelQueue q{100000};
  using sim::Time;
  for (int i = 0; i < 50; ++i) {
    Time now = Time::milliseconds(i);
    EXPECT_TRUE(q.enqueue(make_packet(1500), now));
    // Dequeued almost immediately: sojourn ~0, never drops.
    EXPECT_TRUE(q.dequeue(now + Time::microseconds(100)).has_value());
  }
  EXPECT_EQ(q.stats().dropped_packets, 0u);
  EXPECT_FALSE(q.dropping());
}

TEST(CoDelQueueTest, DropsWhenSojournStaysAboveTarget) {
  CoDelQueue q{1 << 20};
  using sim::Time;
  // Fill a standing queue, then drain slowly so every packet's sojourn is
  // far above the 5 ms target for longer than the 100 ms interval.
  for (int i = 0; i < 200; ++i) q.enqueue(make_packet(1500), Time::milliseconds(i));
  int delivered = 0;
  for (int i = 0; i < 200; ++i) {
    Time now = Time::milliseconds(400 + 10 * i);
    if (q.dequeue(now).has_value()) ++delivered;
    if (q.packet_count() == 0) break;
  }
  EXPECT_GT(q.stats().dropped_packets, 0u);
  EXPECT_GT(delivered, 0);
}

TEST(CoDelQueueTest, HardLimitStillApplies) {
  CoDelQueue q{3000};
  EXPECT_TRUE(q.enqueue(make_packet(1500), {}));
  EXPECT_TRUE(q.enqueue(make_packet(1500), {}));
  EXPECT_FALSE(q.enqueue(make_packet(1500), {}));
}

TEST(CoDelQueueTest, RecoversWhenQueueDrains) {
  CoDelQueue q{1 << 20};
  using sim::Time;
  for (int i = 0; i < 100; ++i) q.enqueue(make_packet(1500), Time::milliseconds(0));
  // Drain everything late (high sojourn), entering the dropping state.
  Time now = Time::milliseconds(500);
  while (q.packet_count() > 0) {
    q.dequeue(now);
    now += Time::milliseconds(10);
  }
  // Fresh traffic with low sojourn passes untouched.
  const std::uint64_t dropped_before = q.stats().dropped_packets;
  q.enqueue(make_packet(1500), now);
  EXPECT_TRUE(q.dequeue(now + Time::microseconds(10)).has_value());
  EXPECT_EQ(q.stats().dropped_packets, dropped_before);
  EXPECT_FALSE(q.dropping());
}

TEST(RedQueueTest, AcceptsWhenBelowMinThreshold) {
  RedQueue q{100000, sim::Random{1}};
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(q.enqueue(make_packet(1500), {}));
    q.dequeue({});
  }
  EXPECT_EQ(q.stats().dropped_packets, 0u);
}

TEST(RedQueueTest, HardLimitAlwaysDrops) {
  RedQueue q{3000, sim::Random{1}};
  q.enqueue(make_packet(1500), {});
  q.enqueue(make_packet(1500), {});
  EXPECT_FALSE(q.enqueue(make_packet(1500), {}));
}

TEST(RedQueueTest, DropsProbabilisticallyUnderSustainedLoad) {
  RedQueue q{30000, sim::Random{7}};
  // Hold the backlog near 80% of capacity, below the hard limit, and keep
  // offering packets: at a 0.002 EWMA weight the average passes the lower
  // threshold (a quarter of capacity) after ~200 arrivals, and early drops
  // follow.
  int accepted = 0;
  for (int i = 0; i < 1000; ++i) {
    if (q.byte_length() + 1500 > 24000) q.dequeue({});
    if (q.enqueue(make_packet(1500), {})) ++accepted;
  }
  EXPECT_GT(q.average_backlog_bytes(), 7500.0);
  EXPECT_GT(q.stats().dropped_packets, 0u);
  EXPECT_GT(accepted, 0);
}

}  // namespace
}  // namespace halfback::net
