// The auditor must stay silent on correct runs and fire on every class of
// seeded violation: double delivery, over-full queues, scoreboard
// inconsistencies, broken ROPR order, and the end-of-run conservation
// sweep. (The event core checks its own order; see tests/sim/.) Its
// per-flow state must stay exact as it grows; this binary replaces the
// global operator new with a byte counter so a test can bound what the
// auditor allocates.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <deque>
#include <memory>
#include <new>
#include <optional>
#include <utility>

#include "audit/invariant_auditor.h"
#include "net/link.h"
#include "net/packet.h"
#include "net/queue.h"
#include "sim/simulator.h"
#include "support/dumbbell_fixture.h"
#include "transport/scoreboard.h"

namespace {
/// Bytes requested from the global operator new so far.
std::atomic<std::size_t> g_allocated_bytes{0};
}  // namespace

// Out of line, so the compiler never sees the malloc() behind a new
// expression and pairs it with the operator delete that frees it.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t /*size*/) noexcept {
  std::free(p);
}

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

/// make_data_packet's destination, and a transit node on the way to it.
constexpr net::NodeId kDestination = 2;
constexpr net::NodeId kTransit = 1;

/// A bare link to node `far_end`: no Network, so no hook reaches the
/// auditor unless a test calls it.
struct BareLink {
  explicit BareLink(net::NodeId far_end = 0) : sink{far_end} {}

  sim::Simulator sim{1};
  net::PacketPool pool;
  net::Node sink;
  net::Link link{sim, sim::DataRate::megabits_per_second(10), 1_ms,
                 std::make_unique<net::DropTailQueue>(1 << 20), pool, sink};
};

/// Report `p` crossing `link` as Link::send and Link::deliver do: one offer
/// and one delivery to the link's far end, so the link's books balance.
void cross(InvariantAuditor& auditor, const net::Link& link, const net::Packet& p) {
  auditor.on_link_offered(link, p);
  auditor.on_link_delivered(link, p);
}

// --- clean runs -------------------------------------------------------------

TEST(InvariantAuditorTest, RealDumbbellRunIsClean) {
  testing::DumbbellFixture fx;
  auto& flow = fx.start(schemes::Scheme::halfback, 100'000);
  fx.sim.run();

  ASSERT_TRUE(flow.complete());
  const exp::RunRecord& run = fx.finish();
  EXPECT_EQ(run.audit_violations, 0u);
  EXPECT_NE(run.trace_hash, 0u);
}

TEST(InvariantAuditorTest, LossyCoDelBottleneckRunIsClean) {
  // A tight CoDel bottleneck forces both admission and in-queue drops, the
  // two accounting paths that differ (see audit::DropContext).
  net::DumbbellConfig config;
  config.bottleneck_queue = net::QueueKind::codel;
  config.bottleneck_buffer_bytes = 20'000;
  config.bottleneck_rate = sim::DataRate::megabits_per_second(5);
  testing::DumbbellFixture fx{config};
  for (std::size_t pair = 0; pair < 4; ++pair) {
    fx.start(schemes::Scheme::tcp, 400'000, pair);
  }
  fx.sim.run();

  EXPECT_EQ(fx.finish().audit_violations, 0u);
}

// --- packet conservation ----------------------------------------------------

TEST(InvariantAuditorTest, DoubleDeliveredPacketIsFlagged) {
  BareLink last_hop{kDestination};
  InvariantAuditor auditor;
  const net::Packet p = make_data_packet(/*uid=*/7);
  cross(auditor, last_hop.link, p);
  EXPECT_TRUE(auditor.ok());
  // The same wire transmission is sent and arrives again: the link's books
  // balance, the destination's do not.
  cross(auditor, last_hop.link, p);
  ASSERT_EQ(auditor.total_violations(), 1u) << auditor.report();
  EXPECT_EQ(auditor.violations().front(),
            "packet delivered to its destination more often than sent: flow 1 "
            "seq 0 uid 7 arrived 2x with a budget of 1 (1 + injected duplicates)");
}

TEST(InvariantAuditorTest, InjectedDuplicateExtendsTheDeliveryBudget) {
  // netfault duplication legitimately lands the same uid at its
  // destination more than once; each on_link_fault_duplicated event buys
  // exactly one extra arrival, no more.
  BareLink last_hop{kDestination};
  InvariantAuditor auditor;
  const net::Packet p = make_data_packet(/*uid=*/21);
  auditor.on_link_fault_duplicated(last_hop.link, p);  // one injected copy
  cross(auditor, last_hop.link, p);
  auditor.on_link_delivered(last_hop.link, p);  // the copy: within the budget
  EXPECT_TRUE(auditor.ok()) << auditor.report();
  cross(auditor, last_hop.link, p);  // a third arrival exceeds 1 + 1
  ASSERT_EQ(auditor.total_violations(), 1u) << auditor.report();
  EXPECT_EQ(auditor.violations().front(),
            "packet delivered to its destination more often than sent: flow 1 "
            "seq 0 uid 21 arrived 3x with a budget of 2 (1 + injected duplicates)");
}

TEST(InvariantAuditorTest, ForwardingHopsDoNotCountAsDeliveries) {
  BareLink to_transit{kTransit};
  BareLink last_hop{kDestination};
  InvariantAuditor auditor;
  const net::Packet p = make_data_packet(/*uid=*/9);
  cross(auditor, to_transit.link, p);  // delivered to node 1; p.dst == 2
  cross(auditor, last_hop.link, p);    // delivered to its destination
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
    record_enqueue(packets_.back());
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

// --- end-of-run conservation sweep ------------------------------------------

TEST(InvariantAuditorTest, FinalizeFlagsLinkConservation) {
  // The link's queue holds a packet the auditor never saw offered: more
  // packets are accounted for (here, queued) than were offered.
  BareLink bare;
  InvariantAuditor auditor;
  auditor.on_link_registered(bare.link);
  ASSERT_TRUE(bare.link.queue().enqueue(make_data_packet(1), sim::Time::zero()));

  auditor.finalize(/*drained=*/false);
  ASSERT_FALSE(auditor.violations().empty());
  EXPECT_EQ(auditor.violations().front(),
            "link conservation violated: offered=0 (+0 duplicated) delivered=0 "
            "corrupted=0 dropped=0 fault_dropped=0 queued=1");
}

TEST(InvariantAuditorTest, FinalizeFlagsPacketsLostAfterDrain) {
  BareLink bare;
  InvariantAuditor auditor;
  auditor.on_link_registered(bare.link);
  auditor.on_link_offered(bare.link, make_data_packet(1));

  auditor.finalize(/*drained=*/false);  // still in flight: tolerated
  EXPECT_TRUE(auditor.ok()) << auditor.report();
  auditor.finalize(/*drained=*/true);
  ASSERT_EQ(auditor.violations().size(), 1u) << auditor.report();
  EXPECT_EQ(auditor.violations().front(),
            "link lost packets: offered=1 (+0 duplicated) but only 0 accounted "
            "and 0 queued after the event queue drained");
}

TEST(InvariantAuditorTest, FinalizeFlagsQueueResidueMismatch) {
  // The queue releases a packet behind the auditor's back, so its residue
  // no longer matches the shadow books.
  InvariantAuditor auditor;
  net::DropTailQueue queue{1 << 20};
  queue.set_auditor(&auditor);
  ASSERT_TRUE(queue.enqueue(make_data_packet(1), sim::Time::zero()));
  ASSERT_TRUE(queue.enqueue(make_data_packet(2), sim::Time::zero()));
  queue.set_auditor(nullptr);
  ASSERT_TRUE(queue.dequeue(sim::Time::zero()).has_value());
  EXPECT_TRUE(auditor.ok()) << auditor.report();

  auditor.finalize(/*drained=*/false);
  ASSERT_EQ(auditor.violations().size(), 1u) << auditor.report();
  EXPECT_EQ(auditor.violations().front(),
            "queue residue mismatch at end of run: queue reports 1500 B / 1 pkts, "
            "audit expects 3000 B / 2 pkts");
}

TEST(InvariantAuditorTest, FinalizeListsLinksInRegistrationOrder) {
  BareLink first;
  BareLink second;
  InvariantAuditor auditor;
  auditor.on_link_registered(first.link);
  auditor.on_link_registered(second.link);
  auditor.on_link_offered(second.link, make_data_packet(1));
  auditor.on_link_offered(second.link, make_data_packet(2));
  auditor.on_link_offered(first.link, make_data_packet(3));

  auditor.finalize(/*drained=*/true);
  ASSERT_EQ(auditor.violations().size(), 2u) << auditor.report();
  EXPECT_NE(auditor.violations()[0].find("offered=1 "), std::string::npos)
      << auditor.report();
  EXPECT_NE(auditor.violations()[1].find("offered=2 "), std::string::npos)
      << auditor.report();
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

// --- growth of the per-flow state -------------------------------------------

TEST(InvariantAuditorTest, HundredThousandDistinctUidsStayClean) {
  BareLink last_hop{kDestination};
  InvariantAuditor auditor;
  for (std::uint64_t uid = 1; uid <= 100'000; ++uid) {
    cross(auditor, last_hop.link,
          make_data_packet(uid, static_cast<std::uint32_t>(uid % 70)));
  }
  EXPECT_TRUE(auditor.ok()) << auditor.report();
  // The set still answers exactly after growing: one old uid again is
  // exactly one violation.
  cross(auditor, last_hop.link, make_data_packet(4'242, 42));
  ASSERT_EQ(auditor.total_violations(), 1u) << auditor.report();
  EXPECT_NE(auditor.violations().front().find("arrived 2x with a budget of 1"),
            std::string::npos)
      << auditor.report();
}

TEST(InvariantAuditorTest, HundredThousandSenderStampedUidsStayCleanInAFewKiB) {
  // Senders stamp uids (flow << 24) + counter, so flow 1's arrivals are
  // dense above its uid prefix and its books stay a small bitmap.
  constexpr std::uint64_t kFlowPrefix = 1ULL << 24;
  BareLink last_hop{kDestination};
  InvariantAuditor auditor;
  const std::size_t before = g_allocated_bytes.load();
  for (std::uint64_t i = 0; i < 100'000; ++i) {
    cross(auditor, last_hop.link,
          make_data_packet(kFlowPrefix + i, static_cast<std::uint32_t>(i % 70)));
  }
  const std::size_t grown = g_allocated_bytes.load() - before;
  EXPECT_TRUE(auditor.ok()) << auditor.report();
  EXPECT_LT(grown, 64u * 1024u);
  cross(auditor, last_hop.link, make_data_packet(kFlowPrefix + 4'242, 42));
  ASSERT_EQ(auditor.total_violations(), 1u) << auditor.report();
  EXPECT_NE(auditor.violations().front().find("arrived 2x with a budget of 1"),
            std::string::npos)
      << auditor.report();
}

TEST(InvariantAuditorTest, CreditedDuplicateIsCleanAtTwoArrivalsAndRedAtThree) {
  BareLink last_hop{kDestination};
  InvariantAuditor auditor;
  const net::Packet p = make_data_packet(77, 3);
  cross(auditor, last_hop.link, p);
  // Credited after the first arrival.
  auditor.on_link_fault_duplicated(last_hop.link, p);
  auditor.on_link_delivered(last_hop.link, p);
  EXPECT_TRUE(auditor.ok()) << auditor.report();
  cross(auditor, last_hop.link, p);
  ASSERT_EQ(auditor.total_violations(), 1u) << auditor.report();
  EXPECT_NE(auditor.violations().front().find("arrived 3x with a budget of 2"),
            std::string::npos)
      << auditor.report();
}

TEST(InvariantAuditorTest, HugeSeqSatisfiesSackedImpliesSentWithoutProportionalMemory) {
  BareLink bare;
  InvariantAuditor auditor;
  transport::Scoreboard scoreboard{10};
  net::Packet ack;
  ack.type = net::PacketType::ack;
  constexpr std::uint32_t kHugeSeq = UINT32_MAX - 1;
  transport::AckUpdate sent_update;
  sent_update.newly_sacked.push_back(kHugeSeq);
  transport::AckUpdate unsent_update;
  unsent_update.newly_sacked.push_back(kHugeSeq - 1);

  const std::size_t before = g_allocated_bytes.load();
  auditor.on_link_offered(bare.link, make_data_packet(5, kHugeSeq));
  auditor.on_ack_applied(scoreboard, /*flow=*/1, ack, sent_update);
  const std::size_t grown = g_allocated_bytes.load() - before;
  EXPECT_TRUE(auditor.ok()) << auditor.report();
  // A bitmap reaching the seq would take 512 MiB; the flow's whole state
  // stays within a few KiB.
  EXPECT_LT(grown, 64u * 1024u);

  // Membership is exact, not a blanket pass above the bitmap.
  auditor.on_ack_applied(scoreboard, /*flow=*/1, ack, unsent_update);
  ASSERT_EQ(auditor.total_violations(), 1u) << auditor.report();
  EXPECT_EQ(auditor.violations().front(),
            "segment 4294967293 of flow 1 was SACKed but never sent");
}

// --- reporting --------------------------------------------------------------

TEST(InvariantAuditorTest, ReportListsViolationsAndCapsStorage) {
  BareLink last_hop{kDestination};
  InvariantAuditor auditor;
  const net::Packet p = make_data_packet(/*uid=*/5);
  for (int i = 0; i < 201; ++i) {
    cross(auditor, last_hop.link, p);  // every arrival after the first repeats
  }
  EXPECT_EQ(auditor.total_violations(), 200u);
  EXPECT_LE(auditor.violations().size(), InvariantAuditor::kMaxStoredViolations);
  EXPECT_GT(auditor.total_violations(), auditor.violations().size());
  EXPECT_NE(auditor.report().find("further violations"), std::string::npos);
}

}  // namespace
}  // namespace halfback::audit
