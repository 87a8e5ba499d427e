// The static sender pipeline: SenderBase (the type-erased seam) +
// Sender<Policy> (the CRTP template every scheme instantiates).
//
// SenderBase owns everything schemes share — handshake with SYN retry,
// segment transmission with retransmission accounting, Karn-filtered RTT
// sampling, scoreboard maintenance, RTO arming, completion detection — and
// exposes exactly one virtual function: on_packet(), the per-packet entry
// the TransportAgent dispatches through. Scheme policy (handle_ack,
// on_timeout, after_transmit, ...) is NOT virtual: Sender<Policy>
// dispatches those hooks statically to the most-derived scheme class, so
// they devirtualize and inline into the per-ACK path. The only place a
// scheme is type-erased back to SenderBase is schemes/factory.cpp — the
// single seam the CLI/bench/exp name-based selection goes through.
//
// Per-flow callbacks are sim::FunctionRef (two words, non-owning, never
// allocates) rather than std::function; per-flow timers are
// sim::Timer for the same reason.
#pragma once

#include <cstdint>
#include <string>

#include "net/node.h"
#include "net/packet.h"
#include "sim/bytes.h"
#include "sim/function_ref.h"
#include "sim/simulator.h"
#include "sim/timer.h"
#include "telemetry/track.h"
#include "transport/rtt_estimator.h"
#include "transport/scoreboard.h"

namespace halfback::transport {

/// Knobs shared by every scheme. Values follow the paper's setup (§4.1):
/// 1500-byte segments, a 141 KB receive window (Windows XP default), and a
/// 2-segment initial window for TCP-family schemes.
struct SenderConfig {
  std::uint32_t initial_window = 2;  ///< segments
  std::uint32_t receive_window_segments = 97;  ///< 141 KB / 1448 B payload
  RttEstimator::Config rtt;
};

/// Everything an experiment wants to know about a finished (or ongoing)
/// flow.
struct FlowRecord {
  net::FlowId flow = 0;
  std::string scheme;
  sim::Bytes flow_bytes = 0;
  std::uint32_t total_segments = 0;

  sim::Time start_time;
  sim::Time established_time;
  sim::Time completion_time;
  bool completed = false;

  std::uint32_t data_packets_sent = 0;
  std::uint32_t normal_retx = 0;     ///< loss-triggered retransmissions
  std::uint32_t proactive_retx = 0;  ///< ROPR / Proactive-TCP copies
  std::uint32_t timeouts = 0;
  std::uint32_t syn_retx = 0;
  std::uint32_t acks_received = 0;

  /// Base path RTT measured by the handshake.
  sim::Time handshake_rtt;

  /// Flow completion time: from flow start (before the SYN) to the sender
  /// holding a cumulative ACK of the last segment — the paper's definition
  /// ("FCT includes both the data transmission time and connection setup
  /// time").
  sim::Time fct() const { return completion_time - start_time; }

  /// FCT expressed in path RTTs (Fig. 7).
  double rtts_used() const {
    return handshake_rtt.is_zero() ? 0.0 : fct() / handshake_rtt;
  }
};

/// The type-erased sender seam.
///
/// Everything the TransportAgent, the experiment runners, and the tests
/// touch goes through this class: start(), on_packet() (the one virtual),
/// the completion callback, and the read-only accessors. Concrete
/// behaviour lives in Sender<Policy> below; construct schemes through
/// schemes::make_sender() (or a concrete scheme class directly when the
/// test knows the type).
class SenderBase {
 public:
  /// Per-flow completion notification. Non-owning: the callee must outlive
  /// the flow (the TransportAgent does, by construction).
  using CompletionRef = sim::FunctionRef<void(const FlowRecord&)>;

  virtual ~SenderBase();

  SenderBase(const SenderBase&) = delete;
  SenderBase& operator=(const SenderBase&) = delete;

  /// Begin the flow: records the start time and sends the SYN. On a
  /// simulator carrying a telemetry hub, the flow takes its FlowTrack here;
  /// recording is purely observational (never schedules or draws
  /// randomness), so trace hashes are unchanged.
  void start() HB_EFFECTS(alloc, throw);

  /// Entry point for SYN-ACK and ACK packets of this flow — the single
  /// virtual dispatch on the per-packet path. Sender<Policy> implements it
  /// and fans out to the scheme's statically-dispatched hooks.
  virtual void on_packet(const net::Packet& packet) = 0;

  void set_completion_callback(CompletionRef cb) { on_complete_ = cb; }

  const FlowRecord& record() const { return record_; }
  bool complete() const { return record_.completed; }
  const Scoreboard& scoreboard() const { return scoreboard_; }
  const RttEstimator& rtt() const { return rtt_; }
  const std::string& scheme_name() const { return record_.scheme; }

 protected:
  SenderBase(sim::Simulator& simulator, net::Node& local_node, net::NodeId peer,
             net::FlowId flow, sim::Bytes flow_bytes, SenderConfig config,
             std::string scheme_name);

  // --- services for Sender<Policy> and the scheme classes ------------------

  /// (Re)arm the retransmission timer at the current RTO.
  void arm_rto();
  void cancel_rto();
  bool rto_armed() const { return rto_timer_.pending(); }

  /// Estimated RTT to use before any ACK sample exists (handshake value).
  sim::Time smoothed_rtt() const;

  /// This flow's telemetry track, nullptr when no hub is installed. The
  /// transport and scheme hooks record their transitions on it.
  telemetry::FlowTrack* track() { return track_; }

  sim::Bytes flow_bytes() const { return record_.flow_bytes; }
  std::uint32_t total_segments() const { return record_.total_segments; }
  bool established() const { return established_; }

  // --- pieces of the packet path assembled by Sender<Policy> ---------------
  // These are the hook-free halves of the old virtual-dispatch methods: the
  // template stitches them together with the statically-dispatched scheme
  // hooks in exactly the pre-refactor order.

  /// Transmit segment `seq` (everything except the after_transmit hook,
  /// which Sender<Policy>::send_segment appends). First transmissions,
  /// loss-triggered retransmissions, and proactive retransmissions are
  /// distinguished automatically for the statistics.
  void transmit_segment(std::uint32_t seq, bool proactive);

  /// SYN-ACK bookkeeping (duplicate filtering, handshake RTT sample,
  /// telemetry). Returns true when the handshake just completed and the
  /// scheme's on_established() must run.
  bool begin_established();

  /// Per-ACK bookkeeping: stats, Karn RTT sample, scoreboard update, audit
  /// hook, backoff reset, RTO re-arm.
  AckUpdate apply_ack(const net::Packet& packet);

  /// Per-RTO bookkeeping (backoff + stats). Returns false when the flow is
  /// already complete and the scheme's on_timeout() must not run.
  bool note_timeout();

  /// Completion detection minus the on_flow_complete hook: returns true
  /// when the flow just completed (timers cancelled, record stamped) and
  /// the hook plus notify_complete() must run.
  bool finish_transfer();

  /// Fire the owner's completion callback (after on_flow_complete).
  void notify_complete();

  sim::Simulator& simulator_;
  net::Node& node_;
  net::NodeId peer_;
  Scoreboard scoreboard_;
  RttEstimator rtt_;
  SenderConfig config_;
  FlowRecord record_;
  /// Retransmission timer; bound by Sender<Policy>'s constructor (the
  /// callback targets the template's statically-dispatched on_rto).
  sim::Timer rto_timer_;

 private:
  void send_syn();
  void on_syn_timeout();
  void take_rtt_sample(const net::Packet& ack);
  std::uint64_t next_uid() { return (record_.flow << 24) + (++uid_counter_); }

  CompletionRef on_complete_;
  telemetry::FlowTrack* track_ = nullptr;  ///< owned by the hub; may be null
  sim::Timer syn_timer_;
  sim::Time syn_last_sent_;
  int syn_tries_ = 0;
  bool established_ = false;
  std::uint64_t uid_counter_ = 0;
};

/// The static pipeline: CRTP base instantiated once per scheme, with
/// `Policy` the most-derived scheme class. The scheme provides its policy
/// as plain (non-virtual) public methods:
///
///   void on_established();                               // required
///   void handle_ack(const net::Packet&, const AckUpdate&);  // required
///   void on_timeout();                                   // required
///   void after_transmit(std::uint32_t seq, bool proactive);  // optional
///   void on_flow_complete();                             // optional
///
/// self() calls devirtualize: on_packet() inlines the scheme's ACK policy,
/// on_rto() inlines its recovery, send_segment() inlines its
/// after_transmit. Adding a scheme means writing a policy class and one
/// factory case — never touching this dispatch.
template <class Policy>
class Sender : public SenderBase {
 public:
  void on_packet(const net::Packet& packet) final {
    if (record_.completed) return;
    switch (packet.type) {
      case net::PacketType::syn_ack:
        if (begin_established()) self().on_established();
        break;
      case net::PacketType::ack: {
        if (!established()) return;  // data ACK before handshake: ignore
        const AckUpdate update = apply_ack(packet);
        maybe_complete();
        if (!record_.completed) self().handle_ack(packet, update);
        break;
      }
      default:
        break;
    }
  }

  // Default (empty) optional hooks; a scheme defining its own shadows these.
  void after_transmit(std::uint32_t /*seq*/, bool /*proactive*/) {}
  void on_flow_complete() {}

 protected:
  Sender(sim::Simulator& simulator, net::Node& local_node, net::NodeId peer,
         net::FlowId flow, sim::Bytes flow_bytes, SenderConfig config,
         std::string scheme_name)
      : SenderBase{simulator,  local_node, peer, flow,
                   flow_bytes, config,     std::move(scheme_name)} {
    rto_timer_.bind(simulator_,
                    sim::FunctionRef<void()>::from<&Sender::on_rto>(*this));
  }

  Policy& self() { return static_cast<Policy&>(*this); }
  const Policy& self() const { return static_cast<const Policy&>(*this); }

  /// Transmit segment `seq`, then run the scheme's after_transmit hook.
  void send_segment(std::uint32_t seq, bool proactive = false) {
    transmit_segment(seq, proactive);
    self().after_transmit(seq, proactive);
  }

  /// Completion check: on the transition, runs the scheme's
  /// on_flow_complete() and then the owner's completion callback.
  void maybe_complete() {
    if (!finish_transfer()) return;
    self().on_flow_complete();
    notify_complete();
  }

 private:
  void on_rto() {
    if (!note_timeout()) return;
    self().on_timeout();
  }
};

/// Number of segments needed to carry `bytes` of application data.
std::uint32_t segments_for_bytes(std::uint64_t bytes);

}  // namespace halfback::transport
