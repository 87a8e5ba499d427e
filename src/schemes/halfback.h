// Halfback (this paper, §3): Pacing phase + Reverse-Ordered Proactive
// Retransmission (ROPR) + fallback to TCP for long flows.
#pragma once

#include <cstdint>
#include <string>

#include "schemes/paced_start.h"

namespace halfback::schemes {

/// Halfback's tuning knobs. Its §5 ablations (retransmission order and
/// rate) are schemes of their own, fixed by the factory.
struct HalfbackConfig {
  /// Pacing Threshold (§3.1) in segments. The paper's experiments set it
  /// to the flow-control window (141 KB = 97 segments).
  std::uint32_t pacing_threshold_segments = 97;

  /// §5 extension ("it is also possible to dynamically tune the additional
  /// bandwidth used for proactive retransmission ... instead of sending one
  /// retransmission for each ACK, we could send two retransmissions for
  /// every three ACKs"): proactive copies per received ACK. 1.0 is the
  /// paper's Halfback; 2.0/3.0 would be the example above.
  double copies_per_ack = 1.0;

  /// §4.2.4 refinement ("send a first batch of data as a burst (either 10
  /// segments as in TCP-10 ...) before Halfback's Pacing Phase") — fixes
  /// the small-flow region where TCP-Cache/TCP-10 beat Halfback because
  /// pacing delays tiny flows by a full RTT. 0 disables the refinement.
  std::uint32_t initial_burst_segments = 0;
};

/// The Halfback sender.
///
/// Phase 1 (Pacing, §3.1): pace min(flow, rwnd, threshold) segments evenly
/// over the handshake RTT.
///
/// Phase 2 (ROPR, §3.2): starting with the first ACK that arrives after
/// pacing has finished, each received ACK triggers one *proactive*
/// retransmission of the highest-sequence segment that is not yet
/// acknowledged, not SACKed, and not already proactively retransmitted —
/// walking backwards from the end of the batch. The phase ends when the
/// backward pointer meets the ACK frontier (typically mid-flow, so ~50% of
/// the flow is re-sent — hence the name). Normal TCP retransmission (fast
/// retransmit + RTO) runs in parallel throughout.
///
/// Phase 3 (fallback, §3.3): flows longer than the threshold continue with
/// normal congestion avoidance from cwnd = s·RTT, where s is the ACK
/// arrival rate observed during ROPR.
class HalfbackSender final : public PacedStartImpl<HalfbackSender> {
  using Base = PacedStartImpl<HalfbackSender>;
  using Tcp = transport::TcpSenderImpl<HalfbackSender>;

 public:
  /// ROPR retransmission order (§5 "Retransmission direction").
  enum class Order { reverse, forward };

  /// ROPR retransmission rate (§5 "Retransmission rate"): one proactive
  /// retransmission per received ACK, or everything at line rate.
  enum class RetxRate { ack_clocked, line_rate };

  /// `order` and `rate` tell Halfback (reverse, ACK-clocked) from its
  /// ablations; schemes::make_sender picks them from the Scheme.
  HalfbackSender(sim::Simulator& simulator, net::Node& local_node, net::NodeId peer,
                 net::FlowId flow, sim::Bytes flow_bytes,
                 transport::SenderConfig config, HalfbackConfig halfback_config,
                 Order order, RetxRate rate, std::string scheme_name)
      : Base{simulator,
             local_node,
             peer,
             flow,
             flow_bytes,
             config,
             halfback_config.pacing_threshold_segments,
             std::move(scheme_name),
             Base::kDefaultPacingQuantum,
             halfback_config.initial_burst_segments},
        halfback_{halfback_config},
        order_{order},
        rate_{rate} {
    // Normal retransmissions are ACK-clocked too — at most one per ACK,
    // like the ROPR copies ("limits aggressiveness at retransmission").
    retx_per_call_limit_ = 1;
  }

  bool ropr_active() const { return ropr_active_; }
  bool ropr_done() const { return ropr_done_; }

  // --- policy hooks (statically dispatched by Sender<HalfbackSender>) ------

  void on_pacing_complete() {
    // ROPR is armed; it begins with the next ACK (§3.2: "we choose to start
    // this phase when the sender receives the first ACK after the Pacing
    // phase"; early ACKs "will not trigger proactive retransmission until
    // all new packets are paced out").
    ropr_armed_ = true;
  }

  void handle_ack(const net::Packet& ack, const transport::AckUpdate& update) {
    Tcp::handle_ack(ack, update);
    if (complete()) return;
    if (ropr_armed_ && !ropr_done_) {
      if (!ropr_active_) begin_ropr();
      ++ropr_acks_;
      if (rate_ == RetxRate::ack_clocked) {
        // `copies_per_ack` proactive retransmissions per received ACK
        // (1.0 = the paper's Halfback; fractional ratios are the §5
        // bandwidth-tuning extension). Credit is capped so a burst cannot
        // build up while no segment is eligible.
        ropr_credit_ = std::min(ropr_credit_ + halfback_.copies_per_ack, 3.0);
        while (ropr_credit_ >= 1.0 && retransmit_one_proactive()) {
          ropr_credit_ -= 1.0;
        }
      }
      check_ropr_finished();
    }
  }

  void on_timeout() {
    // Graceful degradation under severe loss (§3.2's machinery assumes ACKs
    // keep arriving): an RTO means the ACK clock collapsed — the paced
    // batch, the ROPR copies, or the ACKs themselves are being lost in
    // bulk (bursty loss, a blackout). Proactively re-duplicating segments
    // on top of go-back-N RTO recovery would only re-congest the
    // recovering path, so abandon the proactive phase and let standard
    // slow-start recovery (with its capped, backed-off timer) finish the
    // flow. Runs that never hit an RTO — every fault-free run — are
    // untouched.
    if (!ropr_done_) {
      const bool was_active = ropr_active_;
      ropr_done_ = true;
      ropr_active_ = false;
      // The flow falls back; the track flags the interrupted ROPR span
      // abandoned, so the span log tells a cut-short repair from a
      // finished one.
      if (was_active && track() != nullptr) track()->ropr_abandoned(ropr_back_);
    }
    Base::on_timeout();
  }

  void after_transmit(std::uint32_t seq, bool proactive) {
    Base::after_transmit(seq, proactive);
    auto* t = track();
    if (t == nullptr) return;
    if (proactive) {
      t->ropr_sent(seq);
    } else if (pacing_done() && ropr_done_) {
      t->fallback_sent();
    }
  }

  std::uint32_t new_data_limit() const {
    // No new data competes with the paced batch or with ROPR (§3.3: the
    // first k bytes are delivered by Pacing + ROPR, *then* TCP resumes).
    if (!pacing_done()) return 0;
    if (!ropr_done_) return batch_end();
    return Tcp::new_data_limit();
  }

 private:
  void begin_ropr() {
    ropr_active_ = true;
    if (auto* t = track()) t->phase(telemetry::FlowPhase::ropr);
    ropr_started_at_ = simulator_.now();
    ropr_back_ = batch_end();          // reverse pointer (one past)
    ropr_front_ = scoreboard_.cum_ack();  // forward pointer (ablation)
    if (rate_ == RetxRate::line_rate) {
      // Halfback-Burst ablation: all proactive retransmissions at once.
      while (retransmit_one_proactive()) {
      }
      check_ropr_finished();
    }
  }

  /// Send the next proactive retransmission in the configured order.
  /// Returns false when no eligible segment remains.
  bool retransmit_one_proactive() {
    if (order_ == Order::reverse) {
      while (ropr_back_ > scoreboard_.cum_ack()) {
        std::uint32_t seq = ropr_back_ - 1;
        --ropr_back_;
        if (eligible_for_proactive(seq)) {
          send_segment(seq, /*proactive=*/true);
          return true;
        }
      }
      return false;
    }
    // Forward ablation: walk upward from the ACK frontier.
    ropr_front_ = std::max(ropr_front_, scoreboard_.cum_ack());
    while (ropr_front_ < batch_end()) {
      std::uint32_t seq = ropr_front_;
      ++ropr_front_;
      if (eligible_for_proactive(seq)) {
        send_segment(seq, /*proactive=*/true);
        return true;
      }
    }
    return false;
  }

  bool eligible_for_proactive(std::uint32_t seq) const {
    if (scoreboard_.is_acked(seq)) return false;
    const transport::SegmentState* s = scoreboard_.state(seq);
    if (s == nullptr || s->times_sent == 0) return false;  // never sent (RTO aborts)
    return s->proactive_sent == 0;
  }

  void check_ropr_finished() {
    const bool exhausted = order_ == Order::reverse
                               ? ropr_back_ <= scoreboard_.cum_ack()
                               : ropr_front_ >= batch_end();
    if (!exhausted) return;
    ropr_done_ = true;
    enter_fallback();
  }

  void enter_fallback() {
    if (batch_end() >= total_segments()) return;  // nothing left to send
    if (auto* t = track()) t->phase(telemetry::FlowPhase::fallback);
    // §3.3: cwnd = s * RTT with s estimated from ACK arrivals during ROPR.
    sim::Time span = simulator_.now() - ropr_started_at_;
    double s_per_sec = span > sim::Time::zero()
                           ? static_cast<double>(ropr_acks_) / span.to_seconds()
                           : 0.0;
    double window = s_per_sec * smoothed_rtt().to_seconds();
    cwnd_ = std::max(2.0, window);
    ssthresh_ = cwnd_;  // continue in congestion avoidance
    send_available();
  }

  HalfbackConfig halfback_;
  Order order_;
  RetxRate rate_;
  bool ropr_armed_ = false;
  bool ropr_active_ = false;
  bool ropr_done_ = false;
  std::uint32_t ropr_back_ = 0;
  std::uint32_t ropr_front_ = 0;
  std::uint32_t ropr_acks_ = 0;
  double ropr_credit_ = 0.0;
  sim::Time ropr_started_at_;
};

}  // namespace halfback::schemes
