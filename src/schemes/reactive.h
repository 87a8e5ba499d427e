// Reactive TCP [Flach et al., SIGCOMM '13]: TCP plus a probe timeout (PTO)
// that retransmits the last outstanding packet well before the RTO,
// converting tail losses into SACK-recoverable episodes.
#pragma once

#include "sim/timer.h"
#include "transport/tcp_sender.h"

namespace halfback::schemes {

/// TCP with a tail-loss probe.
///
/// Whenever data is outstanding, a probe timer of max(2·SRTT, 10 ms) runs
/// alongside the RTO. If no ACK arrives in time, the highest outstanding
/// segment is retransmitted as a probe; its SACK lets the ordinary
/// fast-retransmit machinery find the real holes. As the paper notes
/// (§2.2), this "does not solve the problem that the starting phase is too
/// conservative" — only the tail-loss penalty is reduced.
class ReactiveSender final : public transport::TcpSenderImpl<ReactiveSender> {
  using Tcp = transport::TcpSenderImpl<ReactiveSender>;

 public:
  ReactiveSender(sim::Simulator& simulator, net::Node& local_node, net::NodeId peer,
                 net::FlowId flow, sim::Bytes flow_bytes,
                 transport::SenderConfig config)
      : TcpSenderImpl{simulator, local_node, peer, flow, flow_bytes, config, "reactive"} {
    pto_timer_.bind(
        simulator,
        sim::FunctionRef<void()>::from<&ReactiveSender::fire_probe>(*this));
  }

  // --- policy hooks (statically dispatched by Sender<ReactiveSender>) ------

  void handle_ack(const net::Packet& ack, const transport::AckUpdate& update) {
    Tcp::handle_ack(ack, update);
    // Each ACK re-opens the probe opportunity.
    probe_sent_ = false;
    rearm_pto();
  }

  void after_transmit(std::uint32_t /*seq*/, bool /*proactive*/) {
    rearm_pto();
  }

  void on_timeout() {
    pto_timer_.cancel();
    Tcp::on_timeout();
  }

 private:
  void rearm_pto() {
    pto_timer_.cancel();
    if (complete() || probe_sent_ || scoreboard_.pipe() == 0) return;
    sim::Time pto = std::max(smoothed_rtt() * 2.0, sim::Time::milliseconds(10));
    pto_timer_.schedule_after(pto);
  }

  void fire_probe() {
    if (complete() || scoreboard_.pipe() == 0) return;
    // Retransmit the highest sent, not-yet-acknowledged segment.
    std::uint32_t top = scoreboard_.highest_sent();
    while (top > scoreboard_.cum_ack()) {
      --top;
      if (!scoreboard_.is_acked(top)) {
        probe_sent_ = true;  // one probe per episode
        send_segment(top);
        arm_rto();
        return;
      }
    }
  }

  sim::Timer pto_timer_;
  bool probe_sent_ = false;
};

}  // namespace halfback::schemes
