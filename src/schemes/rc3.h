// RC3 [Mittal, Sherry, Ratnasamy, Shenker — NSDI '14]: Recursively Cautious
// Congestion Control, the §3.2 comparison point for ROPR's reverse-order
// transmission.
//
// RC3 runs normal TCP from the front of the flow and *simultaneously*
// launches the rest of the flow from the back, at line rate, tagged as
// low-priority traffic. The network (not the sender) provides safety: a
// strict-priority bottleneck forwards the low-priority copies only when
// the link would otherwise idle, so they can never hurt normal traffic.
// The paper contrasts this with Halfback (§3.2): RC3's reverse ordering
// avoids sending the same packet from both control loops, needs in-network
// support, and transmits at line rate; Halfback's reverse ordering is for
// proactive loss recovery, works on unmodified networks, and is
// ACK-clocked.
//
// Simplifications vs the full protocol (documented in DESIGN.md): one
// low-priority level instead of recursive levels, and the RLP copies are
// fire-and-forget (no low-priority retransmission) — recovery of anything
// the RLP batch misses falls to the primary TCP loop, which skips segments
// the copies already delivered (their SACKs arrive within the first RTT).
#pragma once

#include <algorithm>

#include "transport/tcp_sender.h"

namespace halfback::schemes {

class Rc3Sender final : public transport::TcpSenderImpl<Rc3Sender> {
  using Tcp = transport::TcpSenderImpl<Rc3Sender>;

 public:
  Rc3Sender(sim::Simulator& simulator, net::Node& local_node, net::NodeId peer,
            net::FlowId flow, sim::Bytes flow_bytes,
            transport::SenderConfig config)
      : TcpSenderImpl{simulator, local_node, peer, flow, flow_bytes, config, "rc3"} {}

  std::uint32_t rlp_copies_sent() const { return rlp_sent_; }
  bool rlp_abandoned() const { return rlp_abandoned_; }

  // Statically dispatched by Sender<Rc3Sender>.
  void on_established() {
    Tcp::on_established();  // the primary loop slow-starts from seq 0
    // RLP: the whole remaining flow, reverse order, line rate, priority 1.
    // Bounded by the receive window like everything else.
    const std::uint32_t window_limit =
        std::min(total_segments(), config_.receive_window_segments);
    const std::uint32_t already_sent = scoreboard_.highest_sent();
    for (std::uint32_t seq = window_limit; seq-- > already_sent;) {
      send_rlp_copy(seq);
    }
  }

  void handle_ack(const net::Packet& ack, const transport::AckUpdate& update) {
    if (rlp_abandoned_ && update.backfill_acked > 0) {
      // Post-abandon, strip the congestion-window credit the backfill
      // earned (see on_timeout below): acknowledgements for segments this
      // loop never sent still advance the window edge and complete the
      // flow, they just no longer open cwnd during RTO recovery.
      transport::AckUpdate damped = update;
      std::uint32_t strip = update.backfill_acked;
      const std::uint32_t from_cum = std::min(strip, damped.newly_cum_acked);
      damped.newly_cum_acked -= from_cum;
      strip -= from_cum;
      while (strip > 0 && !damped.newly_sacked.empty()) {
        damped.newly_sacked.pop_back();
        --strip;
      }
      Tcp::handle_ack(ack, damped);
      return;
    }
    Tcp::handle_ack(ack, update);
  }

  void on_timeout() {
    // Graceful degradation mirroring Halfback's ROPR abandon (PR 4): an RTO
    // means the RLP batch's promise — its SACKs arrive within the first RTT
    // — has collapsed, and the primary loop falls back to go-back-N
    // recovery from cwnd = 1. Copies of the batch may still trickle in
    // afterwards (they sat in a low-priority queue through the loss event);
    // crediting their delivery to the congestion window would open the
    // recovering path far faster than slow start intends, on bytes this
    // control loop never clocked out. Abandon the backfill: keep skipping
    // segments the copies delivered (the receiver has them), but stop
    // growing cwnd on their acknowledgements. Runs that never hit an RTO —
    // every fault-free run — are untouched.
    if (!rlp_abandoned_) {
      rlp_abandoned_ = true;
      if (auto* t = track()) t->rlp_abandoned(scoreboard_.cum_ack());
    }
    Tcp::on_timeout();
  }

 private:
  void send_rlp_copy(std::uint32_t seq) {
    // RLP packets bypass the primary loop's scoreboard: the primary learns
    // about them only through the receiver's SACKs, exactly as a separate
    // control loop would.
    net::Packet p;
    p.flow = record_.flow;
    p.type = net::PacketType::data;
    p.src = node_.id();
    p.dst = peer_;
    p.seq = seq;
    p.total_segments = record_.total_segments;
    p.size_bytes = net::kSegmentWireBytes;
    p.is_retx = false;
    p.is_proactive = true;
    p.priority = 1;
    p.uid = (record_.flow << 24) + 0x800000u + (++rlp_sent_);
    p.sent_at = simulator_.now();
    ++record_.data_packets_sent;
    ++record_.proactive_retx;
    node_.send(std::move(p));
  }

  std::uint32_t rlp_sent_ = 0;
  bool rlp_abandoned_ = false;
};

}  // namespace halfback::schemes
