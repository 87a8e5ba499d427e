#include "schemes/pcp.h"

#include <algorithm>

namespace halfback::schemes {

PcpSender::PcpSender(sim::Simulator& simulator, net::Node& local_node,
                     net::NodeId peer, net::FlowId flow, sim::Bytes flow_bytes,
                     transport::SenderConfig config)
    : Sender{simulator, local_node, peer,  flow,
             flow_bytes, config,    "pcp"} {
  tick_timer_.bind(simulator,
                   sim::FunctionRef<void()>::from<&PcpSender::on_tick>(*this));
  round_timer_.bind(
      simulator, sim::FunctionRef<void()>::from<&PcpSender::end_round>(*this));
}

void PcpSender::on_tick() {
  tick_pending_ = false;
  data_tick();
}

PcpSender::~PcpSender() { train_event_.cancel(); }

void PcpSender::on_established() {
  // Initial verified rate: two segments per RTT (a slow-start-like floor);
  // the first probe immediately tests double that. The floor is applied in
  // the time domain so no raw seconds value floats around.
  const sim::Time rtt =
      std::max(record_.handshake_rtt, sim::Time::microseconds(100.0));
  base_rate_ = 2.0 / rtt.to_seconds();
  probe_rate_ = 2.0 * base_rate_;
  begin_round();
  schedule_data_tick();
}

std::optional<std::uint32_t> PcpSender::next_to_send() {
  if (auto lost = scoreboard_.next_lost_needing_retx()) return lost;
  auto next = scoreboard_.next_unsent();
  if (next.has_value() &&
      *next < scoreboard_.flow_control_limit(config_.receive_window_segments) &&
      scoreboard_.pipe() < config_.receive_window_segments) {
    return next;
  }
  return std::nullopt;
}

void PcpSender::begin_round() {
  round_has_sample_ = false;
  send_probe_train();
  round_timer_.schedule_after(smoothed_rtt());
}

void PcpSender::send_probe_train() {
  // A short train paced at the probe rate. Probe packets carry real data
  // (PCP probes with payload), so they advance the flow too.
  const sim::Time spacing = sim::Time::seconds(1.0 / std::max(probe_rate_, 1.0));
  train_step(kTrainLength, spacing);
}

void PcpSender::train_step(int remaining, sim::Time spacing) {
  if (remaining <= 0 || complete()) return;
  auto seq = next_to_send();
  if (!seq.has_value()) return;
  send_segment(*seq);
  if (!rto_armed()) arm_rto();
  train_event_ = simulator_.schedule(
      spacing, [this, remaining, spacing] { train_step(remaining - 1, spacing); });
}

void PcpSender::data_tick() {
  if (complete()) return;
  if (paused_) {
    idle_ = true;  // data gated until a clean round
    return;
  }
  auto seq = next_to_send();
  if (!seq.has_value()) {
    idle_ = true;
    return;
  }
  idle_ = false;
  send_segment(*seq);
  if (!rto_armed()) arm_rto();
  schedule_data_tick();
}

void PcpSender::schedule_data_tick() {
  if (tick_pending_ || complete()) return;
  tick_pending_ = true;
  const sim::Time interval = sim::Time::seconds(1.0 / std::max(base_rate_, 1.0));
  tick_timer_.schedule_after(interval);
}

void PcpSender::handle_ack(const net::Packet& /*ack*/,
                           const transport::AckUpdate& /*update*/) {
  if (rtt_.has_sample()) {
    const sim::Time latest = rtt_.latest_rtt();
    if (!round_has_sample_ || latest < round_min_rtt_) round_min_rtt_ = latest;
    round_has_sample_ = true;
  }
  scoreboard_.detect_losses();
  if (idle_ && !paused_) {
    idle_ = false;
    if (!tick_pending_) schedule_data_tick();
  }
}

void PcpSender::end_round() {
  if (complete()) return;
  if (round_has_sample_) {
    // Probe verdict: if even the best RTT this round shows queue build-up,
    // the probed rate exceeds what the path can absorb.
    const double base = rtt_.min_rtt().to_seconds();
    const double seen = round_min_rtt_.to_seconds();
    if (seen > base * (1.0 + kDelayTolerance)) {
      // Congested: hold the verified rate, halve the next probe toward it,
      // and send nothing but probes for a round.
      probe_rate_ = std::max(base_rate_, (base_rate_ + probe_rate_) / 2.0);
      paused_ = true;
    } else {
      // Verified: adopt the probed rate and aim double next round.
      base_rate_ = probe_rate_;
      probe_rate_ = 2.0 * base_rate_;
      paused_ = false;
    }
  }
  // Without samples (everything lost, or nothing outstanding) hold rates;
  // loss recovery is driven by the RTO.
  begin_round();
  if (!paused_ && idle_) data_tick();
}

void PcpSender::on_timeout() {
  scoreboard_.mark_all_outstanding_lost();
  base_rate_ = std::max(base_rate_ * 0.5, 1.0);
  probe_rate_ = std::max(probe_rate_ * 0.5, 2.0);
  arm_rto();
  if (!tick_pending_) {
    paused_ = false;
    data_tick();
  }
}

}  // namespace halfback::schemes
