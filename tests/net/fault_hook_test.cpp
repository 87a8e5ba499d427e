// Link-level fault-hook semantics: with no hook the link behaves exactly
// as before; with a hook, drops/corruption/duplication/extra delay are
// applied after serialization, counted in LinkStats, and keep FIFO order
// for the original packet.
#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "net/fault_hook.h"
#include "net/link.h"
#include "sim/simulator.h"

namespace halfback::net {
namespace {

using sim::DataRate;
using sim::Simulator;
using sim::Time;
using namespace halfback::sim::literals;

/// Replays a scripted sequence of decisions; default-constructed decisions
/// (deliver normally) once the script runs out.
class ScriptedHook final : public FaultHook {
 public:
  FaultDecision on_transmit(const Packet& /*packet*/, Time /*now*/) override {
    if (script_.empty()) return {};
    FaultDecision d = script_.front();
    script_.pop_front();
    return d;
  }

  void push(FaultDecision d) { script_.push_back(d); }

 private:
  std::deque<FaultDecision> script_;
};

Packet make_packet(std::uint32_t seq = 0) {
  Packet p;
  p.type = PacketType::data;
  p.size_bytes = 1500;
  p.seq = seq;
  p.uid = seq + 1;
  return p;
}

struct HookFixture {
  Simulator sim{1};
  ScriptedHook hook;
  PacketPool pool;
  Node sink{0};  ///< the far end; test packets are addressed to it
  std::vector<std::pair<Time, Packet>> arrivals;
  std::unique_ptr<Link> link;

  HookFixture() {
    sink.set_local_handler(
        [this](Packet p) { arrivals.emplace_back(sim.now(), std::move(p)); });
    // 15 Mbps, 10 ms: one 1500 B packet = 0.8 ms serialization, arrivals
    // land at 10.8 ms + queueing.
    link = std::make_unique<Link>(
        sim, DataRate::megabits_per_second(15), 10_ms,
        std::make_unique<DropTailQueue>(1 << 20), pool, sink);
    link->set_fault_hook(&hook);
  }
};

TEST(FaultHookTest, HookAccessors) {
  HookFixture f;
  EXPECT_EQ(f.link->fault_hook(), &f.hook);
  f.link->set_fault_hook(nullptr);
  EXPECT_EQ(f.link->fault_hook(), nullptr);
}

TEST(FaultHookTest, DefaultDecisionDeliversOnSchedule) {
  HookFixture f;
  f.link->send(make_packet());
  f.sim.run();
  ASSERT_EQ(f.arrivals.size(), 1u);
  EXPECT_EQ(f.arrivals[0].first, 10.8_ms);
  const LinkStats& s = f.link->stats();
  EXPECT_EQ(s.fault_dropped_packets, 0u);
  EXPECT_EQ(s.fault_corrupted_packets, 0u);
  EXPECT_EQ(s.fault_duplicated_packets, 0u);
  EXPECT_EQ(s.fault_delayed_packets, 0u);
}

TEST(FaultHookTest, DropDiscardsAfterSerialization) {
  HookFixture f;
  FaultDecision drop;
  drop.drop = true;
  f.hook.push(drop);
  f.link->send(make_packet(0));
  f.link->send(make_packet(1));  // second packet unaffected
  f.sim.run();
  ASSERT_EQ(f.arrivals.size(), 1u);
  EXPECT_EQ(f.arrivals[0].second.seq, 1u);
  EXPECT_EQ(f.link->stats().fault_dropped_packets, 1u);
  // The dropped packet still consumed its serialization slot: the survivor
  // arrives a full extra serialization time later.
  EXPECT_EQ(f.arrivals[0].first, 11.6_ms);
}

TEST(FaultHookTest, CorruptionFlagsThePacketButDeliversIt) {
  HookFixture f;
  FaultDecision corrupt;
  corrupt.corrupt = true;
  f.hook.push(corrupt);
  f.link->send(make_packet());
  f.sim.run();
  ASSERT_EQ(f.arrivals.size(), 1u);
  EXPECT_TRUE(f.arrivals[0].second.corrupted);
  EXPECT_EQ(f.arrivals[0].first, 10.8_ms);  // timing untouched
  EXPECT_EQ(f.link->stats().fault_corrupted_packets, 1u);
}

TEST(FaultHookTest, DuplicationKeepsOriginalFirst) {
  HookFixture f;
  FaultDecision dup;
  dup.duplicates = 2;  // zero spacing: copies tie with the original
  f.hook.push(dup);
  f.link->send(make_packet(7));
  f.sim.run();
  ASSERT_EQ(f.arrivals.size(), 3u);
  for (const auto& [at, p] : f.arrivals) {
    EXPECT_EQ(at, 10.8_ms);  // FIFO same-timestamp: original launched first
    EXPECT_EQ(p.seq, 7u);
    EXPECT_EQ(p.uid, 8u);  // copies carry the same wire uid
  }
  EXPECT_EQ(f.link->stats().fault_duplicated_packets, 2u);
}

TEST(FaultHookTest, DuplicateSpacingStaggersTheCopies) {
  HookFixture f;
  FaultDecision dup;
  dup.duplicates = 2;
  dup.duplicate_spacing = 3_ms;
  f.hook.push(dup);
  f.link->send(make_packet());
  f.sim.run();
  ASSERT_EQ(f.arrivals.size(), 3u);
  EXPECT_EQ(f.arrivals[0].first, 10.8_ms);
  EXPECT_EQ(f.arrivals[1].first, 13.8_ms);
  EXPECT_EQ(f.arrivals[2].first, 16.8_ms);
}

TEST(FaultHookTest, ExtraDelayPostponesDelivery) {
  HookFixture f;
  FaultDecision slow;
  slow.extra_delay = 5_ms;
  f.hook.push(slow);
  f.link->send(make_packet(0));
  f.link->send(make_packet(1));
  f.sim.run();
  ASSERT_EQ(f.arrivals.size(), 2u);
  // The jittered packet (seq 0) was overtaken by seq 1: reordering.
  EXPECT_EQ(f.arrivals[0].second.seq, 1u);
  EXPECT_EQ(f.arrivals[0].first, 11.6_ms);
  EXPECT_EQ(f.arrivals[1].second.seq, 0u);
  EXPECT_EQ(f.arrivals[1].first, 15.8_ms);
  EXPECT_EQ(f.link->stats().fault_delayed_packets, 1u);
}

TEST(FaultHookTest, NegativeDelayFromAHookIsALogicError) {
  HookFixture f;
  FaultDecision bad;
  bad.extra_delay = Time::milliseconds(-1);
  f.hook.push(bad);
  f.link->send(make_packet());
  EXPECT_THROW(f.sim.run(), std::logic_error);
}

}  // namespace
}  // namespace halfback::net
