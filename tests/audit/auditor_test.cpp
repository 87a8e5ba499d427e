// The auditor must stay silent on correct runs and fire on every class of
// seeded violation: stale events, reordered dispatch, double delivery,
// over-full queues, scoreboard inconsistencies, and broken ROPR order.
#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <optional>
#include <utility>

#include "audit/invariant_auditor.h"
#include "net/link.h"
#include "net/packet.h"
#include "net/queue.h"
#include "sim/simulator.h"
#include "support/dumbbell_fixture.h"
#include "transport/scoreboard.h"

namespace halfback::audit {
namespace {

using namespace halfback::sim::literals;

net::Packet make_data_packet(std::uint64_t uid, std::uint32_t seq = 0) {
  net::Packet p;
  p.flow = 1;
  p.type = net::PacketType::data;
  p.src = 0;
  p.dst = 2;
  p.seq = seq;
  p.size_bytes = 1500;
  p.uid = uid;
  return p;
}

// --- clean runs -------------------------------------------------------------

TEST(InvariantAuditorTest, RealDumbbellRunIsClean) {
  testing::DumbbellFixture fx;
  InvariantAuditor auditor;
  fx.net.install_auditor(auditor);

  auto& flow = fx.start(schemes::Scheme::halfback, 100'000);
  fx.sim.run();

  ASSERT_TRUE(flow.complete());
  auditor.finalize(/*drained=*/fx.sim.queue().empty());
  EXPECT_TRUE(auditor.ok()) << auditor.report();
  EXPECT_NE(auditor.trace_hash(), 0u);
}

TEST(InvariantAuditorTest, LossyCoDelBottleneckRunIsClean) {
  // A tight CoDel bottleneck forces both admission and in-queue drops, the
  // two accounting paths that differ (see audit::DropContext).
  net::DumbbellConfig config;
  config.bottleneck_queue = net::QueueKind::codel;
  config.bottleneck_buffer_bytes = 20'000;
  config.bottleneck_rate = sim::DataRate::megabits_per_second(5);
  testing::DumbbellFixture fx{config};
  InvariantAuditor auditor;
  fx.net.install_auditor(auditor);

  for (std::size_t pair = 0; pair < 4; ++pair) {
    fx.start(schemes::Scheme::tcp, 400'000, pair);
  }
  fx.sim.run();

  auditor.finalize(fx.sim.queue().empty());
  EXPECT_TRUE(auditor.ok()) << auditor.report();
}

// --- event-engine violations ------------------------------------------------

TEST(InvariantAuditorTest, SchedulingInThePastIsFlagged) {
  sim::Simulator simulator;
  InvariantAuditor auditor;
  simulator.set_auditor(&auditor);

  // An event at t=5ms schedules another at absolute t=1ms — in the past.
  // Both the stale scheduling and the resulting backwards dispatch must be
  // flagged.
  simulator.schedule_at(5_ms, [&] { simulator.schedule_at(1_ms, [] {}); });
  simulator.run();

  EXPECT_FALSE(auditor.ok());
  EXPECT_GE(auditor.total_violations(), 2u) << auditor.report();
}

TEST(InvariantAuditorTest, FifoTieBreakViolationIsFlagged) {
  InvariantAuditor auditor;
  auditor.on_event_run(2_ms, 7);
  auditor.on_event_run(2_ms, 7);  // same time, non-increasing seq
  EXPECT_FALSE(auditor.ok());
}

TEST(InvariantAuditorTest, MonotoneEqualTimeDispatchIsClean) {
  InvariantAuditor auditor;
  auditor.on_event_run(1_ms, 1);
  auditor.on_event_run(1_ms, 2);
  auditor.on_event_run(3_ms, 0);  // seq may reset across times
  EXPECT_TRUE(auditor.ok()) << auditor.report();
}

// --- packet conservation ----------------------------------------------------

TEST(InvariantAuditorTest, DoubleDeliveredPacketIsFlagged) {
  InvariantAuditor auditor;
  const net::Packet p = make_data_packet(/*uid=*/7);
  auditor.on_node_received(2, p);
  EXPECT_TRUE(auditor.ok());
  auditor.on_node_received(2, p);  // the same wire transmission arrives again
  EXPECT_FALSE(auditor.ok());
}

TEST(InvariantAuditorTest, InjectedDuplicateExtendsTheDeliveryBudget) {
  // netfault duplication legitimately lands the same uid at its
  // destination more than once; each on_link_fault_duplicated event buys
  // exactly one extra arrival, no more.
  sim::Simulator sim{1};
  net::Link link{sim, sim::DataRate::megabits_per_second(10), 1_ms,
                 std::make_unique<net::DropTailQueue>(1 << 20), 0.0};
  InvariantAuditor auditor;
  const net::Packet p = make_data_packet(/*uid=*/21);
  auditor.on_link_fault_duplicated(link, p);  // one injected copy
  auditor.on_node_received(2, p);
  auditor.on_node_received(2, p);  // the copy: within the extended budget
  EXPECT_TRUE(auditor.ok()) << auditor.report();
  auditor.on_node_received(2, p);  // a third arrival exceeds 1 + 1
  EXPECT_FALSE(auditor.ok());
}

TEST(InvariantAuditorTest, ForwardingHopsDoNotCountAsDeliveries) {
  InvariantAuditor auditor;
  const net::Packet p = make_data_packet(/*uid=*/9);
  auditor.on_node_received(1, p);  // transit hop: p.dst == 2
  auditor.on_node_received(2, p);  // destination
  EXPECT_TRUE(auditor.ok()) << auditor.report();
}

// --- queue accounting -------------------------------------------------------

/// A buggy queue that admits everything, ignoring its capacity — the class
/// of bug the byte-accounting audit exists to catch.
class OverfullQueue final : public net::PacketQueue {
 public:
  explicit OverfullQueue(std::uint64_t capacity) : capacity_{capacity} {}

  bool enqueue(net::Packet p, sim::Time /*now*/) override {
    bytes_ += p.size_bytes;
    packets_.push_back(std::move(p));
    record_enqueue(packets_.back(), packets_.size());
    return true;
  }
  std::optional<net::Packet> dequeue(sim::Time /*now*/) override {
    if (packets_.empty()) return std::nullopt;
    net::Packet p = std::move(packets_.front());
    packets_.pop_front();
    bytes_ -= p.size_bytes;
    record_dequeue(p);
    return p;
  }
  std::uint64_t byte_length() const override { return bytes_; }
  std::size_t packet_count() const override { return packets_.size(); }
  std::uint64_t capacity_bytes() const override { return capacity_; }

 private:
  std::uint64_t capacity_;
  std::uint64_t bytes_ = 0;
  std::deque<net::Packet> packets_;
};

TEST(InvariantAuditorTest, OverFullQueueIsFlagged) {
  InvariantAuditor auditor;
  OverfullQueue queue{2'000};
  queue.set_auditor(&auditor);

  ASSERT_TRUE(queue.enqueue(make_data_packet(1), sim::Time::zero()));
  EXPECT_TRUE(auditor.ok());
  ASSERT_TRUE(queue.enqueue(make_data_packet(2), sim::Time::zero()));  // 3000 B > 2000 B
  EXPECT_FALSE(auditor.ok());
}

TEST(InvariantAuditorTest, DropTailAccountingIsClean) {
  InvariantAuditor auditor;
  net::DropTailQueue queue{3'000};
  queue.set_auditor(&auditor);

  EXPECT_TRUE(queue.enqueue(make_data_packet(1), sim::Time::zero()));
  EXPECT_TRUE(queue.enqueue(make_data_packet(2), sim::Time::zero()));
  EXPECT_FALSE(queue.enqueue(make_data_packet(3), sim::Time::zero()));  // admission drop
  EXPECT_TRUE(queue.dequeue(sim::Time::zero()).has_value());
  EXPECT_TRUE(queue.dequeue(sim::Time::zero()).has_value());
  EXPECT_FALSE(queue.dequeue(sim::Time::zero()).has_value());

  EXPECT_TRUE(auditor.ok()) << auditor.report();
  EXPECT_EQ(queue.stats().dequeued_packets, 2u);
  EXPECT_EQ(queue.stats().dropped_packets, 1u);
}

// --- scoreboard consistency -------------------------------------------------

TEST(InvariantAuditorTest, SackForNeverSentSegmentIsFlagged) {
  InvariantAuditor auditor;
  transport::Scoreboard scoreboard{10};
  // Segments 0..4 sent; a corrupted ACK SACKs segment 7, which never left
  // the sender.
  for (std::uint32_t seq = 0; seq < 5; ++seq) {
    scoreboard.on_sent(seq, seq + 1, 1_ms, false);
  }
  net::Packet ack;
  ack.type = net::PacketType::ack;
  ack.cum_ack = 0;
  transport::AckUpdate update = scoreboard.apply_ack(0, {{7, 8}});
  ASSERT_EQ(update.newly_sacked.size(), 1u);

  auditor.on_ack_applied(scoreboard, /*flow=*/1, ack, update);
  EXPECT_FALSE(auditor.ok());
}

TEST(InvariantAuditorTest, CumAckRegressionIsFlagged) {
  InvariantAuditor auditor;
  transport::Scoreboard scoreboard{10};
  for (std::uint32_t seq = 0; seq < 10; ++seq) {
    scoreboard.on_sent(seq, seq + 1, 1_ms, false);
  }
  net::Packet ack;
  ack.type = net::PacketType::ack;

  transport::AckUpdate forward;
  forward.cum_ack_before = 0;
  forward.cum_ack_after = 6;
  auditor.on_ack_applied(scoreboard, 1, ack, forward);
  EXPECT_TRUE(auditor.ok());

  transport::AckUpdate backward;
  backward.cum_ack_before = 6;
  backward.cum_ack_after = 3;  // the ACK clock ran backwards
  auditor.on_ack_applied(scoreboard, 1, ack, backward);
  EXPECT_FALSE(auditor.ok());
}

TEST(InvariantAuditorTest, ScoreboardUpdatesThroughSenderPathAreClean) {
  InvariantAuditor auditor;
  transport::Scoreboard scoreboard{4};
  net::Packet ack;
  ack.type = net::PacketType::ack;
  for (std::uint32_t seq = 0; seq < 4; ++seq) {
    scoreboard.on_sent(seq, seq + 1, 1_ms, false);
    auditor.on_segment_sent(scoreboard, 1, "tcp", seq, false, seq + 1);
  }
  transport::AckUpdate update = scoreboard.apply_ack(2, {{3, 4}});
  auditor.on_ack_applied(scoreboard, 1, ack, update);
  update = scoreboard.apply_ack(4, {});
  auditor.on_ack_applied(scoreboard, 1, ack, update);
  EXPECT_TRUE(auditor.ok()) << auditor.report();
}

// --- ROPR reverse-order property --------------------------------------------

TEST(InvariantAuditorTest, RoprReverseOrderViolationIsFlagged) {
  InvariantAuditor auditor;
  transport::Scoreboard scoreboard{10};
  for (std::uint32_t seq = 0; seq < 10; ++seq) {
    scoreboard.on_sent(seq, seq + 1, 1_ms, false);
  }
  auditor.on_segment_sent(scoreboard, 1, "halfback", 8, /*proactive=*/true, 11);
  auditor.on_segment_sent(scoreboard, 1, "halfback", 6, /*proactive=*/true, 12);
  EXPECT_TRUE(auditor.ok());
  // Walking forward again breaks §3.2's reverse-order property.
  auditor.on_segment_sent(scoreboard, 1, "halfback", 7, /*proactive=*/true, 13);
  EXPECT_FALSE(auditor.ok());
}

TEST(InvariantAuditorTest, ForwardAblationIsExemptFromRoprOrder) {
  InvariantAuditor auditor;
  transport::Scoreboard scoreboard{10};
  for (std::uint32_t seq = 0; seq < 10; ++seq) {
    scoreboard.on_sent(seq, seq + 1, 1_ms, false);
  }
  auditor.on_segment_sent(scoreboard, 1, "halfback-forward", 2, true, 11);
  auditor.on_segment_sent(scoreboard, 1, "halfback-forward", 3, true, 12);
  EXPECT_TRUE(auditor.ok()) << auditor.report();
}

// --- reporting --------------------------------------------------------------

TEST(InvariantAuditorTest, ReportListsViolationsAndCapsStorage) {
  InvariantAuditor auditor;
  for (int i = 0; i < 200; ++i) {
    auditor.on_event_run(2_ms, 1);
    auditor.on_event_run(1_ms, 2);  // time goes backwards every iteration
  }
  EXPECT_FALSE(auditor.ok());
  EXPECT_LE(auditor.violations().size(), InvariantAuditor::kMaxStoredViolations);
  EXPECT_GT(auditor.total_violations(), auditor.violations().size());
  EXPECT_NE(auditor.report().find("further violations"), std::string::npos);
}

}  // namespace
}  // namespace halfback::audit
