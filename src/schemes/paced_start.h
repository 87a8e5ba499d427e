// Shared machinery for schemes that pace their initial batch over one RTT
// (JumpStart and all Halfback variants).
#pragma once

#include <algorithm>

#include "sim/timer.h"
#include "transport/tcp_sender.h"

namespace halfback::schemes {

/// TCP sender whose startup phase paces segments evenly across one RTT
/// (the handshake sample) instead of slow-starting.
///
/// The batch is min(flow size, receive window, pacing threshold). After the
/// batch, behaviour returns to the derived scheme: JumpStart falls back to
/// plain (bursty) TCP, Halfback enters its ROPR phase. Like TcpSenderImpl,
/// this is a policy layer of the static pipeline: `Derived` is the concrete
/// scheme class, and hooks it shadows (after_transmit, on_timeout,
/// new_data_limit, on_pacing_complete) dispatch to it statically.
template <class Derived>
class PacedStartImpl : public transport::TcpSenderImpl<Derived> {
  using Base = transport::TcpSenderImpl<Derived>;

 public:
  /// Pacing-timer granularity. The paper's schemes are user-space UDT
  /// implementations (§4.1), and a user-space pacer fires on a coarse
  /// timer: segments due within one tick leave as a back-to-back clump at
  /// line rate. This quantization is what makes overlapping paced flows
  /// overflow a BDP-sized buffer — with idealized per-packet pacing the
  /// 115 KB Emulab buffer would absorb two overlapping 100 KB flows
  /// loss-free and the paper's §4.3 loss dynamics would not reproduce.
  /// Tests that need ideal pacing set this to zero.
  static constexpr auto kDefaultPacingQuantum = sim::Time::milliseconds(10);

  bool pacing_done() const { return pacing_done_; }
  std::uint32_t batch_end() const { return batch_end_; }

  // --- policy hooks (statically dispatched) --------------------------------

  void on_established() {
    if (auto* t = this->track()) t->phase(telemetry::FlowPhase::pacing);
    batch_end_ = std::min({this->total_segments(),
                           this->config_.receive_window_segments,
                           pacing_threshold_segments_});
    // The whole batch is "released" at once: post-pacing TCP machinery
    // starts from a window covering everything already in flight.
    this->cwnd_ = static_cast<double>(batch_end_);
    this->ssthresh_ = this->cwnd_;
    // §4.2.4 refinement: optionally blast an initial window as a burst
    // before pacing, so tiny flows don't pay a full pacing RTT.
    const std::uint32_t burst = std::min(initial_burst_segments_, batch_end_);
    for (std::uint32_t seq = 0; seq < burst; ++seq) this->send_segment(seq);
    if (burst >= batch_end_) {
      finish_pacing();
      if (this->scoreboard_.pipe() > 0 && !this->rto_armed()) this->arm_rto();
      return;
    }
    // Pace the batch evenly across the measured RTT (§3.1): for n segments,
    // one every RTT/n, the first immediately.
    pace_interval_ =
        this->record_.handshake_rtt / static_cast<double>(batch_end_);
    pace_next();
  }

  /// Called once, when the last batch segment has been handed to the NIC.
  /// A derived scheme defining its own shadows this default.
  void on_pacing_complete() {}

  /// Count paced-phase transmissions (including the initial burst). Runs
  /// for every data transmission; shadowing schemes must call through.
  void after_transmit(std::uint32_t /*seq*/, bool proactive) {
    auto* t = this->track();
    if (t != nullptr && !proactive && !pacing_done_) t->paced_sent();
  }

  void on_timeout() {
    // An RTO during the pacing phase aborts pacing (everything outstanding
    // is marked lost anyway and will be recovered by TCP machinery).
    if (!pacing_done_) finish_pacing();
    Base::on_timeout();
  }

  /// During the pacing phase new data leaves only through the pacer.
  std::uint32_t new_data_limit() const {
    if (!pacing_done_) return 0;
    return Base::new_data_limit();
  }

 protected:
  PacedStartImpl(sim::Simulator& simulator, net::Node& local_node,
                 net::NodeId peer, net::FlowId flow, sim::Bytes flow_bytes,
                 transport::SenderConfig config,
                 std::uint32_t pacing_threshold_segments,
                 std::string scheme_name,
                 sim::Time pacing_quantum = kDefaultPacingQuantum,
                 std::uint32_t initial_burst_segments = 0)
      : Base{simulator,  local_node, peer, flow,
             flow_bytes, config,     std::move(scheme_name)},
        pacing_threshold_segments_{pacing_threshold_segments},
        pacing_quantum_{pacing_quantum},
        initial_burst_segments_{initial_burst_segments} {
    pace_timer_.bind(
        simulator,
        sim::FunctionRef<void()>::from<&PacedStartImpl::pace_next>(*this));
  }

  /// UDT-style NAK-driven recovery (§4.1: the schemes are implemented over
  /// UDT with selective ACKs): every segment still deemed lost and not yet
  /// SACKed is retransmitted again once per RTT round, at line rate. This
  /// is the "propensity to retransmit the same packets multiple times" the
  /// paper diagnoses in JumpStart; for Halfback the same machinery runs,
  /// but ROPR's copies usually fill the holes before a second round fires.
  void burst_stale_lost_segments(double rounds_per_rtt = 1.0) {
    // Nothing lost and un-SACKed → the scan below would retransmit
    // nothing; skip the per-ACK window walk (the common case once
    // recovery has caught up, and always on clean paths).
    if (!this->scoreboard_.any_lost_unsacked()) return;
    const sim::Time now = this->simulator_.now();
    const sim::Time round = this->smoothed_rtt() / rounds_per_rtt;
    for (std::uint32_t seq = this->scoreboard_.cum_ack();
         seq < this->scoreboard_.highest_sent(); ++seq) {
      const transport::SegmentState* s = this->scoreboard_.state(seq);
      if (s == nullptr || !s->lost || s->sacked || s->times_sent == 0) continue;
      if (now - s->last_sent >= round) this->send_segment(seq);
    }
  }

  void finish_pacing() {
    if (pacing_done_) return;
    pacing_done_ = true;
    pace_timer_.cancel();
    // Derived schemes refine further (Halfback enters "ropr" with the first
    // post-pacing ACK); until then the flow is in generic transfer.
    if (auto* t = this->track()) t->phase(telemetry::FlowPhase::transfer);
    // The pacer may finish within one timer tick (RTT shorter than the
    // pacing quantum); the retransmission timer must be armed regardless,
    // or a fully-lost batch would never recover.
    if (this->scoreboard_.pipe() > 0 && !this->rto_armed()) this->arm_rto();
    this->self().on_pacing_complete();
  }

 private:
  void pace_next() {
    if (this->complete()) return;
    // Send every segment due in this timer tick as one clump.
    const std::int64_t due =
        pacing_quantum_ > pace_interval_
            ? std::max<std::int64_t>(1,
                                     pacing_quantum_.ns() / pace_interval_.ns())
            : 1;
    for (std::int64_t i = 0; i < due; ++i) {
      auto next = this->scoreboard_.next_unsent();
      if (!next.has_value() || *next >= batch_end_) {
        finish_pacing();
        return;
      }
      this->send_segment(*next);
    }
    if (this->scoreboard_.pipe() > 0 && !this->rto_armed()) this->arm_rto();
    auto upcoming = this->scoreboard_.next_unsent();
    if (!upcoming.has_value() || *upcoming >= batch_end_) {
      finish_pacing();
      return;
    }
    pace_timer_.schedule_after(pace_interval_ * static_cast<double>(due));
  }

  std::uint32_t pacing_threshold_segments_ = 0;
  sim::Time pacing_quantum_;
  std::uint32_t initial_burst_segments_ = 0;
  std::uint32_t batch_end_ = 0;
  sim::Time pace_interval_;
  bool pacing_done_ = false;
  sim::Timer pace_timer_;  ///< one-shot pacing tick, re-armed per clump
};

}  // namespace halfback::schemes
