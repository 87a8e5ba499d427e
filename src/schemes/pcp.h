// PCP [Anderson et al., NSDI '06]: endpoint congestion control that probes
// for available bandwidth and sends paced at the *verified* rate.
//
// Reimplemented from the paper's description (the original user-level code
// is not available here — see DESIGN.md). The model keeps the protocol's
// structure and the qualitative behaviours that matter for the Halfback
// comparison:
//
//   * rate doubling by *probing*: each RTT round a short packet train goes
//     out at double the current base rate; only if the round shows no
//     added queueing delay does the base rate rise to the probed rate —
//     so data transmission never runs ahead of verification, which costs
//     start-up time and is often conservative on short flows (§2.2:
//     "unacceptably long FCT ... can have higher flow completion time than
//     TCP");
//   * when the probe shows rising delay, PCP holds its rate and sends
//     nothing but the next probe for a round (§4.2.3: "It will not send
//     data, except probing, when the queuing delay is increasing"), which
//     makes it extremely conservative against queue-filling TCP;
//   * paced transmission throughout, never bursts — the fewest
//     retransmissions of all schemes (Fig. 10b).
#pragma once

#include "sim/timer.h"
#include "transport/sender.h"

namespace halfback::schemes {

/// PCP does not reuse the TCP machinery at all, so it sits directly on
/// Sender<PcpSender> rather than on TcpSenderImpl.
class PcpSender final : public transport::Sender<PcpSender> {
 public:
  PcpSender(sim::Simulator& simulator, net::Node& local_node, net::NodeId peer,
            net::FlowId flow, sim::Bytes flow_bytes, transport::SenderConfig config);
  ~PcpSender() override;

  double base_rate_segments_per_second() const { return base_rate_; }
  double probe_rate_segments_per_second() const { return probe_rate_; }
  bool paused() const { return paused_; }

  // --- policy hooks (statically dispatched by Sender<PcpSender>) -----------
  void on_established();
  void handle_ack(const net::Packet& ack, const transport::AckUpdate& update);
  void on_timeout();

 private:
  /// Segments per probe train (the paper's PCP uses short trains).
  static constexpr int kTrainLength = 5;
  /// Added queueing delay (above the path minimum) that marks a probe
  /// round as congested.
  static constexpr double kDelayTolerance = 0.15;  // +15% of base RTT

  void on_tick();
  void begin_round();
  void end_round();
  void send_probe_train();
  void train_step(int remaining, sim::Time spacing);
  void data_tick();
  void schedule_data_tick();
  std::optional<std::uint32_t> next_to_send();

  double base_rate_ = 0.0;   ///< verified rate, segments per second
  double probe_rate_ = 0.0;  ///< rate under test this round
  bool paused_ = false;      ///< congested verdict: probe only, no data

  bool tick_pending_ = false;
  bool idle_ = false;
  sim::Timer tick_timer_;   ///< paced data clock, one outstanding tick
  sim::Timer round_timer_;  ///< per-RTT probe-round boundary
  // Probe trains deliberately stay on the std::function shim: a new round
  // can start while the previous round's train is still stepping, and those
  // chains must coexist (a reusable Timer would cancel the older chain).
  sim::EventHandle train_event_;

  bool round_has_sample_ = false;
  sim::Time round_min_rtt_;
};

}  // namespace halfback::schemes
