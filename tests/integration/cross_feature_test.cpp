// Cross-feature integration: combinations of schemes with the optional
// substrate features (AQM queues, priority bands, complex topologies) that
// no single-module test exercises together.
#include <gtest/gtest.h>

#include <vector>

#include "audit/auditor.h"
#include "exp/rig.h"
#include "net/topology.h"
#include "schemes/factory.h"
#include "support/drop_hook.h"
#include "support/dumbbell_fixture.h"
#include "transport/agent.h"

namespace halfback {
namespace {

using schemes::Scheme;
using testing::DropHook;
using testing::DumbbellFixture;
using namespace halfback::sim::literals;

// --------------------------------------------------------- CoDel x transport

TEST(CoDelIntegrationTest, BulkFlowKeepsStandingQueueSmall) {
  // A bulk TCP flow with a large window through a bloated buffer: drop-tail
  // lets the standing queue grow to the window; CoDel holds it near the
  // 5 ms target (~9.4 KB at 15 Mbps).
  auto standing_queue = [](net::QueueKind kind) {
    net::DumbbellConfig config;
    config.bottleneck_buffer_bytes = 600'000;
    config.bottleneck_queue = kind;
    DumbbellFixture f{testing::one_pair(config)};
    f.context.sender_config.receive_window_segments = 1000;
    f.start(Scheme::tcp, 20'000'000);
    // Steady state, mid-transfer: the *standing* queue, not the slow-start
    // overshoot (CoDel deliberately tolerates transients).
    f.sim.run_until(10_s);
    return f.dumbbell.bottleneck_forward->queue().byte_length();
  };
  const std::uint64_t droptail = standing_queue(net::QueueKind::drop_tail);
  const std::uint64_t codel = standing_queue(net::QueueKind::codel);
  EXPECT_GT(droptail, 200'000u);  // deep standing queue (Reno sawtooth mid-cycle)
  EXPECT_LT(codel, 100'000u);     // held near the sojourn target
}

TEST(CoDelIntegrationTest, HalfbackShortFlowsSurviveCoDel) {
  net::DumbbellConfig config;
  config.bottleneck_queue = net::QueueKind::codel;
  DumbbellFixture f{config};
  transport::SenderBase& s = f.start(Scheme::halfback, 100'000);
  f.sim.run_until(30_s);
  ASSERT_TRUE(s.complete());
  EXPECT_LT(s.record().fct(), 400_ms);
}

// ----------------------------------------------------------- RC3 under loss

TEST(Rc3LossTest, PrimaryLoopCoversRlpLosses) {
  // Random loss kills some low-priority copies AND some primary packets;
  // the primary loop must still deliver everything exactly once.
  net::DumbbellConfig config;
  config.bottleneck_queue = net::QueueKind::priority;
  DumbbellFixture f{testing::one_pair(config), /*seed=*/5};
  // 5% random loss on the bottleneck.
  sim::Random rng{11};
  DropHook random_loss{[&rng](const net::Packet&) { return rng.bernoulli(0.05); }};
  f.dumbbell.bottleneck_forward->set_fault_hook(&random_loss);

  transport::SenderBase& flow = f.start(Scheme::rc3, 100'000);
  f.sim.run_until(60_s);
  ASSERT_TRUE(flow.complete());
  transport::Receiver* r = f.receiver_for(1);
  EXPECT_EQ(r->stats().unique_segments, flow.record().total_segments);
}

// --------------------------------------------------- parking lot x schemes

TEST(ParkingLotIntegrationTest, HalfbackPacesOverSummedRtt) {
  exp::Rig rig{9};
  net::ParkingLot lot = net::build_parking_lot(rig.network(), 3);  // 60 ms end to end
  transport::TransportAgent& sender = rig.add_agent(lot.main_sender);
  rig.add_agent(lot.main_receiver);
  schemes::SchemeContext context;
  transport::SenderBase& flow = rig.start(
      sender, context, exp::FlowSpec{Scheme::halfback, lot.main_receiver, 1, 100'000});
  rig.simulator().run();
  exp::RunRecord run;
  rig.finish(run);
  EXPECT_EQ(run.audit_violations, 0u) << rig.auditor().report();
  ASSERT_TRUE(flow.complete());
  // Handshake measured the summed RTT; pacing + ROPR behave as on a single
  // 60 ms path: ~3 RTTs, ~50% copies.
  EXPECT_NEAR(flow.record().handshake_rtt.to_ms(), 60.0, 2.0);
  EXPECT_LT(flow.record().rtts_used(), 3.6);
  EXPECT_NEAR(static_cast<double>(flow.record().proactive_retx), 35.0, 6.0);
}

// -------------------------------------------- pacing quantization visible

/// Records when first copies of data packets are offered to one link:
/// on_link_offered fires at link entry, before the queue smooths clumps out.
class IngressTap final : public audit::Auditor {
 public:
  IngressTap(const sim::Simulator& simulator, const net::Link& link)
      : simulator_{simulator}, link_{link} {}

  void on_link_offered(const net::Link& link, const net::Packet& p) override {
    if (&link == &link_ && p.type == net::PacketType::data && !p.is_retx) {
      arrivals.push_back(simulator_.now());
    }
  }

  std::vector<sim::Time> arrivals;

 private:
  const sim::Simulator& simulator_;
  const net::Link& link_;
};

TEST(PacingQuantizationTest, SegmentsLeaveInTimerClumps) {
  // With the 10 ms default quantum and a 60 ms RTT, the 70-segment batch
  // leaves in ~6-7 clumps; the bottleneck sees long runs of
  // back-to-back arrivals (spaced by the 1 Gbps access serialization, not
  // the pacing interval).
  sim::Simulator simulator{2};
  net::Network network{simulator};
  net::Dumbbell d = net::build_dumbbell(network, testing::one_pair());
  // Observe *arrival* instants at the bottleneck.
  IngressTap tap{simulator, *d.bottleneck_forward};
  simulator.set_auditor(&tap);
  transport::TransportAgent sender{simulator, network, d.senders[0]};
  transport::TransportAgent receiver{simulator, network, d.receivers[0]};

  schemes::SchemeContext context;
  auto halfback = schemes::make_sender(Scheme::halfback, context, simulator,
                                       network.node(d.senders[0]), d.receivers[0],
                                       1, 100'000);
  sender.start_flow(std::move(halfback));
  simulator.run();

  // Count distinct "bursts": gaps > 2 ms between consecutive first-copy
  // arrivals delimit pacing ticks.
  const std::vector<sim::Time>& arrivals = tap.arrivals;
  ASSERT_GE(arrivals.size(), 70u);
  int bursts = 1;
  for (std::size_t i = 1; i < 70; ++i) {
    if (arrivals[i] - arrivals[i - 1] > 2_ms) ++bursts;
  }
  EXPECT_GE(bursts, 4);
  EXPECT_LE(bursts, 9);
}

}  // namespace
}  // namespace halfback
