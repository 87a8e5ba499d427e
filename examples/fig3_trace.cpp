// Fig. 3 walkthrough (§3.4): a 10-segment Halfback flow, packet by packet,
// with segment 9's first transmission forcibly dropped — reproducing the
// paper's worked example of ROPR recovering a loss before TCP's machinery
// would even have detected it.
//
// Demonstrates the flow flight recorder (the timeline is the sender's tape,
// printed with telemetry::render_tape) and loss injection through the
// link's fault hook (net::FaultHook), the same seam netfault uses. Exits 1
// if the run rig's invariant auditor reports a violation.
#include <cstdio>

#include "exp/rig.h"
#include "net/fault_hook.h"
#include "net/topology.h"
#include "telemetry/hub.h"

using namespace halfback;

namespace {

/// Drops the first copy of one segment at the bottleneck, after it
/// serializes, and says so.
class DropFirstCopy final : public net::FaultHook {
 public:
  explicit DropFirstCopy(std::uint32_t seq) : seq_{seq} {}

  net::FaultDecision on_transmit(const net::Packet& p, sim::Time /*now*/) override {
    net::FaultDecision decision;
    if (!dropped_ && p.type == net::PacketType::data && p.seq == seq_ && !p.is_retx) {
      dropped_ = true;
      decision.drop = true;
      std::printf("    (fault injection: dropping first copy of segment %u)\n", seq_);
    }
    return decision;
  }

 private:
  std::uint32_t seq_;
  bool dropped_ = false;
};

}  // namespace

int main() {
  exp::Rig rig{7};
  net::DumbbellConfig topo;
  topo.sender_count = 1;
  topo.receiver_count = 1;
  net::Dumbbell dumbbell = net::build_dumbbell(rig.network(), topo);

  transport::TransportAgent& sender_host = rig.add_agent(dumbbell.senders[0]);
  transport::TransportAgent& receiver_host = rig.add_agent(dumbbell.receivers[0]);

  // The hub gives every flow started on the network a flight-recorder
  // tape: each transmission, proactive copy, and ACK lands on it as it
  // happens.
  telemetry::Hub hub;
  rig.install(&hub, nullptr, {});

  // Force the loss the paper's example narrates: the first copy of
  // segment index 8 (the paper's "packet 9") vanishes at the bottleneck.
  DropFirstCopy drop{8};
  dumbbell.bottleneck_forward->set_fault_hook(&drop);

  schemes::SchemeContext context;
  std::printf("starting a 10-segment Halfback flow (Fig. 3 walkthrough)\n");
  transport::SenderBase& flow = rig.start(
      sender_host, context,
      exp::FlowSpec{schemes::Scheme::halfback, dumbbell.receivers[0], /*flow=*/1,
                    10 * net::kSegmentPayloadBytes});

  rig.simulator().run();
  exp::RunRecord run;
  rig.finish(run);
  if (run.audit_violations > 0) {
    std::fprintf(stderr, "fig3_trace: invariant violations\n%s",
                 rig.auditor().report().c_str());
    return 1;
  }

  std::printf("\nsender-side timeline (the flow's flight-recorder tape):\n%s",
              telemetry::render_tape(
                  *hub.recorder().find(telemetry::TrackKind::flow, 1))
                  .c_str());

  const transport::FlowRecord& record = flow.record();
  std::printf("\nflow complete at %.2f ms (%.1f RTTs)\n",
              record.completion_time.to_ms(), record.rtts_used());
  std::printf("proactive (ROPR) retransmissions: %u — the reverse-order sweep\n",
              record.proactive_retx);
  std::printf("normal retransmissions: %u, timeouts: %u\n", record.normal_retx,
              record.timeouts);
  transport::Receiver* rx = receiver_host.receiver(1);
  if (rx != nullptr) {
    std::printf("receiver saw %u duplicate segments (ROPR copies of data that "
                "had already arrived)\n",
                rx->stats().duplicate_segments);
  }
  std::printf(
      "\nAs in the paper's example: the lost tail segment was recovered by a\n"
      "proactive reverse-order copy, before any timeout or dupACK detection.\n");
  return 0;
}
