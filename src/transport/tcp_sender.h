// Vanilla TCP sender: slow start, congestion avoidance, SACK-based fast
// retransmit, NewReno-style recovery, RTO. The baseline of the paper, and
// the machinery most schemes reuse.
//
// TcpSenderImpl<Derived> is the reusable policy layer of the static
// pipeline: schemes derive as `class X final : public TcpSenderImpl<X>` and
// shadow the hooks they specialize; calls to send_available() /
// new_data_limit() dispatch statically through self(), so a scheme's
// overrides inline into the shared machinery with no vtable on the path.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>

#include "transport/sender.h"

namespace halfback::transport {

/// TCP with a configurable initial congestion window.
///
/// "TCP" in the paper uses ICW = 2 (its evaluation default) and "TCP-10"
/// uses ICW = 10; both are the concrete TcpSender below.
template <class Derived>
class TcpSenderImpl : public Sender<Derived> {
  using Base = Sender<Derived>;

 public:
  double cwnd() const { return cwnd_; }
  double ssthresh() const { return ssthresh_; }
  bool in_recovery() const { return in_recovery_; }

  // --- policy hooks (statically dispatched by Sender<Derived>) -------------

  void on_established() {
    cwnd_ = static_cast<double>(this->config_.initial_window);
    this->self().send_available();
  }

  void handle_ack(const net::Packet& /*ack*/, const AckUpdate& update) {
    grow_cwnd(update.newly_acked_total());

    if (in_recovery_ && update.cum_ack_after >= recovery_point_) {
      in_recovery_ = false;
      cwnd_ = ssthresh_;
    }

    if (this->scoreboard_.detect_losses() > 0 && !in_recovery_) enter_recovery();

    this->self().send_available();
  }

  void on_timeout() {
    // RFC 5681 RTO recovery: collapse to one segment, mark everything
    // outstanding lost and start over from the hole.
    ssthresh_ =
        std::max(static_cast<double>(this->scoreboard_.pipe()) / 2.0, 2.0);
    cwnd_ = 1.0;
    in_recovery_ = false;
    this->scoreboard_.mark_all_outstanding_lost();
    this->self().send_available();
    if (!this->rto_armed()) {
      this->arm_rto();  // keep the timer alive even if nothing was sendable
    }
  }

  /// Transmit retransmissions and new data as the congestion, flow-control
  /// and scheme-specific windows allow. Classic TCP sends in bursts (no
  /// pacing) — exactly the behaviour the paper's JumpStart critique rests
  /// on. Arms the RTO if data is outstanding. Derived classes may shadow
  /// this (e.g. PCP replaces it entirely).
  void send_available() {
    const auto window = static_cast<std::uint32_t>(cwnd_);
    std::uint32_t retx_sent = 0;
    while (true) {
      if (this->scoreboard_.pipe() >= window) break;
      if (retx_sent < retx_per_call_limit_) {
        if (auto lost = this->scoreboard_.next_lost_needing_retx()) {
          this->send_segment(*lost);
          ++retx_sent;
          continue;
        }
      }
      auto next = this->scoreboard_.next_unsent();
      if (next.has_value() && *next < this->self().new_data_limit()) {
        if (this->scoreboard_.is_sacked(*next)) {
          // Already delivered by an out-of-band copy (RC3's low-priority
          // batch): account it as virtually sent and move on.
          this->scoreboard_.on_sent(*next, 0, this->simulator_.now(),
                                    /*proactive=*/true);
          continue;
        }
        this->send_segment(*next);
        continue;
      }
      break;
    }
    if (this->scoreboard_.pipe() > 0 && !this->rto_armed()) this->arm_rto();
  }

  /// Upper bound (exclusive) on new-data sequence numbers; derived classes
  /// shadow it to restrict (e.g. Halfback's fallback region management).
  std::uint32_t new_data_limit() const {
    return this->scoreboard_.flow_control_limit(
        this->config_.receive_window_segments);
  }

 protected:
  TcpSenderImpl(sim::Simulator& simulator, net::Node& local_node,
                net::NodeId peer, net::FlowId flow, sim::Bytes flow_bytes,
                SenderConfig config, std::string scheme_name = "tcp")
      : Base{simulator,  local_node, peer, flow,
             flow_bytes, config,     std::move(scheme_name)} {}

  /// Grow cwnd for `newly_acked` segments (slow start or congestion
  /// avoidance). No growth during fast recovery.
  void grow_cwnd(std::uint32_t newly_acked) {
    if (in_recovery_) return;
    for (std::uint32_t i = 0; i < newly_acked; ++i) {
      if (cwnd_ < ssthresh_) {
        cwnd_ += 1.0;  // slow start
      } else {
        cwnd_ += 1.0 / cwnd_;  // congestion avoidance
      }
    }
  }

  /// Enter fast recovery: halve the window once per loss episode.
  void enter_recovery() {
    in_recovery_ = true;
    recovery_point_ = this->scoreboard_.highest_sent();
    ssthresh_ =
        std::max(static_cast<double>(this->scoreboard_.pipe()) / 2.0, 2.0);
    cwnd_ = ssthresh_;
  }

  double cwnd_ = 2.0;
  double ssthresh_ = 1e9;
  bool in_recovery_ = false;
  std::uint32_t recovery_point_ = 0;
  /// Cap on loss-triggered retransmissions per send_available() call.
  /// Unlimited for TCP (retransmissions ride the cwnd budget); Halfback
  /// sets it to 1 so its normal retransmissions are ACK-clocked like ROPR
  /// (§3: "limits aggressiveness at retransmission").
  std::uint32_t retx_per_call_limit_ = UINT32_MAX;
};

/// The concrete baseline sender ("tcp" / "tcp10" by initial window).
class TcpSender final : public TcpSenderImpl<TcpSender> {
 public:
  TcpSender(sim::Simulator& simulator, net::Node& local_node, net::NodeId peer,
            net::FlowId flow, sim::Bytes flow_bytes, SenderConfig config,
            std::string scheme_name = "tcp")
      : TcpSenderImpl{simulator,  local_node, peer, flow,
                      flow_bytes, config,     std::move(scheme_name)} {}
};

}  // namespace halfback::transport
