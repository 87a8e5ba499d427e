// Tracks: the one recording surface of the simulator layers.
//
// A FlowTrack (one per started flow) and a LinkTrack (one per instrumented
// link) decide what each transition feeds. A sender, link or queue holds
// one nullable pointer to its track, tests it once per transition and
// passes the transition's payload; the track updates the hub's counters
// and histograms, the span log and its own tape (payloads catalogued in
// flight_recorder.h).
//
// Every recording call is inline and allocation-free — stores into storage
// the Hub preallocated — so the recording layers need no link edge to the
// telemetry library, and a hub never perturbs a run. Tracks read the
// simulated clock themselves; the Hub creates them (hub.h).
#pragma once

#include <cstdint>

#include "net/packet.h"
#include "sim/annotations.h"
#include "sim/bytes.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/metric.h"
#include "telemetry/span.h"

namespace halfback::telemetry {

/// Transport instruments, fed by FlowTrack's transport transitions.
struct TransportProbes {
  Counter* flows_started = nullptr;
  Counter* flows_completed = nullptr;
  Counter* syn_sent = nullptr;
  Counter* syn_retx = nullptr;
  Counter* segments_sent = nullptr;
  Counter* retx_sent = nullptr;       ///< loss-triggered retransmissions
  Counter* proactive_sent = nullptr;  ///< ROPR / proactive-scheme copies
  Counter* acks_received = nullptr;
  Counter* karn_discards = nullptr;   ///< ambiguous RTT samples dropped
  Counter* rto_fired = nullptr;
  Counter* scoreboard_sacked = nullptr;  ///< outstanding -> sacked
  Counter* scoreboard_acked = nullptr;   ///< any -> cumulatively acked
  Histogram* rtt = nullptr;            ///< accepted RTT samples (ns)
  Histogram* handshake_rtt = nullptr;  ///< SYN -> SYN-ACK (ns)
  Histogram* fct = nullptr;            ///< flow completion times (ns)
};

/// Scheme instruments, fed by FlowTrack's scheme transitions.
struct SchemeProbes {
  Counter* paced_packets = nullptr;     ///< sent during paced start
  Counter* ropr_packets = nullptr;      ///< proactive ROPR copies
  Counter* fallback_packets = nullptr;  ///< sent after fallback entry
  Counter* ropr_abandoned = nullptr;    ///< ROPR cut short by RTO
  Counter* rlp_abandoned = nullptr;     ///< RC3 backfill trust cut by RTO
  Gauge* ropr_low_water = nullptr;      ///< deepest backward ROPR position
};

/// One flow's telemetry: its tape and its span tree (a root flow span, one
/// child per phase, one per RTO-recovery episode).
class FlowTrack {
 public:
  FlowTrack(const sim::Simulator& clock, Tape& tape, TransportProbes& transport,
            SchemeProbes& scheme, SpanRecorder& spans)
      : clock_{clock},
        tape_{tape},
        transport_{transport},
        scheme_{scheme},
        spans_{spans} {}
  FlowTrack(const FlowTrack&) = delete;
  FlowTrack& operator=(const FlowTrack&) = delete;

  // --- transport transitions (SenderBase) ----------------------------------

  /// The flow starts: its root span opens and the handshake phase begins.
  void start(sim::Bytes flow_bytes) HB_EFFECTS() {
    const sim::Time now = clock_.now();
    transport_.flows_started->increment();
    tape_.record(now, TapeEventKind::flow_start, 0, flow_bytes.count());
    span_flow_ = spans_.open_span(tape_.id(), SpanKind::flow, 0, now);
    enter(now, FlowPhase::handshake);
  }

  /// SYN transmission number `attempt` (1 = the first).
  void syn_sent(std::uint32_t attempt) HB_EFFECTS() {
    transport_.syn_sent->increment();
    if (attempt > 1) transport_.syn_retx->increment();
    tape_.record(clock_.now(), TapeEventKind::syn_sent, attempt);
  }

  /// The SYN-ACK arrived after `handshake_rtt` and the flow enters the
  /// generic transfer phase. Only a sample of a SYN sent once
  /// (`unambiguous`, Karn) reaches the histogram; the tape keeps them all.
  void established(sim::Time handshake_rtt, bool unambiguous) HB_EFFECTS() {
    const sim::Time now = clock_.now();
    if (unambiguous) transport_.handshake_rtt->record_time(handshake_rtt);
    tape_.record(now, TapeEventKind::established, 0,
                 nonnegative_ns(handshake_rtt));
    enter(now, FlowPhase::transfer);
  }

  /// The scheme moved the flow to `phase` (complete() reaches `done`).
  void phase(FlowPhase phase) HB_EFFECTS() { enter(clock_.now(), phase); }

  /// Data segment `seq` left. A proactive copy counts as proactive even
  /// when it is a retransmission.
  void segment_sent(std::uint32_t seq, bool retx, bool proactive) HB_EFFECTS() {
    const sim::Time now = clock_.now();
    if (proactive) {
      transport_.proactive_sent->increment();
      tape_.record(now, TapeEventKind::proactive_sent, seq);
    } else if (retx) {
      transport_.retx_sent->increment();
      tape_.record(now, TapeEventKind::retx_sent, seq);
    } else {
      transport_.segments_sent->increment();
      tape_.record(now, TapeEventKind::segment_sent, seq);
    }
  }

  /// A Karn-valid RTT sample was taken.
  void rtt_sample(sim::Time sample) HB_EFFECTS() {
    transport_.rtt->record_time(sample);
    tape_.record(clock_.now(), TapeEventKind::rtt_sample, 0,
                 nonnegative_ns(sample));
  }

  /// The ACK echoing segment `seq` was ambiguous; its sample was dropped.
  void karn_discard(std::uint32_t seq) HB_EFFECTS() {
    transport_.karn_discards->increment();
    tape_.record(clock_.now(), TapeEventKind::karn_discard, seq);
  }

  /// An ACK for `cum_ack` newly covered `newly_cum_acked` segments by the
  /// cumulative ack and `newly_sacked` by SACK blocks. Cumulative progress
  /// (`advanced`) ends an RTO-recovery episode.
  void ack_received(std::uint32_t cum_ack, std::uint32_t newly_cum_acked,
                    std::uint32_t newly_sacked, bool advanced) HB_EFFECTS() {
    const sim::Time now = clock_.now();
    transport_.acks_received->increment();
    // Qualified: the effect analysis resolves an unqualified member call by
    // name alone and would charge stats::Summary::add's growth here.
    transport_.scoreboard_acked->Counter::add(newly_cum_acked);
    transport_.scoreboard_sacked->Counter::add(newly_sacked);
    tape_.record(now, TapeEventKind::ack_received, cum_ack);
    if (advanced && span_rto_ != 0) {
      spans_.close_span(span_rto_, now);
      span_rto_ = 0;
    }
  }

  /// The flow's `timeouts`-th RTO fired. Back-to-back RTOs with no
  /// cumulative progress extend one recovery episode.
  void rto_fired(std::uint32_t timeouts) HB_EFFECTS() {
    const sim::Time now = clock_.now();
    transport_.rto_fired->increment();
    tape_.record(now, TapeEventKind::rto_fired, timeouts);
    if (span_rto_ == 0) {
      span_rto_ = spans_.open_span(tape_.id(), SpanKind::rto_recovery,
                                   span_flow_, now);
    }
  }

  /// The last segment was cumulatively acked, `fct` after the start; every
  /// open span of the flow closes.
  void complete(sim::Time fct) HB_EFFECTS() {
    const sim::Time now = clock_.now();
    transport_.flows_completed->increment();
    transport_.fct->record_time(fct);
    tape_.record(now, TapeEventKind::complete, 0, nonnegative_ns(fct));
    spans_.close_span(span_rto_, now);
    span_rto_ = 0;
    enter(now, FlowPhase::done);
    spans_.close_span(span_flow_, now);
    span_flow_ = 0;
  }

  // --- scheme transitions (paced start, Halfback, RC3) ---------------------

  /// A segment left during the paced-start phase.
  void paced_sent() HB_EFFECTS() { scheme_.paced_packets->increment(); }

  /// ROPR sent its proactive copy of segment `seq`.
  void ropr_sent(std::uint32_t seq) HB_EFFECTS() {
    scheme_.ropr_packets->increment();
    scheme_.ropr_low_water->set(static_cast<double>(seq));
  }

  /// A segment left after Halfback's fallback began.
  void fallback_sent() HB_EFFECTS() { scheme_.fallback_packets->increment(); }

  /// An RTO cut ROPR short at backward position `position`: its span is
  /// flagged abandoned and the flow falls back.
  void ropr_abandoned(std::uint32_t position) HB_EFFECTS() {
    const sim::Time now = clock_.now();
    scheme_.ropr_abandoned->increment();
    tape_.record(now, TapeEventKind::ropr_abandoned, position);
    spans_.abandon_span(span_phase_);
    enter(now, FlowPhase::fallback);
  }

  /// An RTO ended RC3's trust in its low-priority backfill at `cum_ack`.
  void rlp_abandoned(std::uint32_t cum_ack) HB_EFFECTS() {
    scheme_.rlp_abandoned->increment();
    tape_.record(clock_.now(), TapeEventKind::rlp_abandoned, cum_ack);
  }

 private:
  /// Close the current phase span and, except for `done`, open the next
  /// under the root. A repeated phase (Halfback-Burst re-entering fallback)
  /// reopens the span but leaves one phase_enter on the tape.
  void enter(sim::Time now, FlowPhase phase) HB_EFFECTS() {
    if (phase != phase_) tape_.enter_phase(now, phase);
    phase_ = phase;
    spans_.close_span(span_phase_, now);
    span_phase_ = 0;
    if (phase != FlowPhase::done) {
      span_phase_ =
          spans_.open_span(tape_.id(), span_kind(phase), span_flow_, now);
    }
  }

  static std::uint64_t nonnegative_ns(sim::Time t) HB_EFFECTS() {
    return t.ns() < 0 ? 0 : static_cast<std::uint64_t>(t.ns());
  }

  static SpanKind span_kind(FlowPhase phase) HB_EFFECTS() {
    switch (phase) {
      case FlowPhase::handshake: return SpanKind::handshake;
      case FlowPhase::pacing: return SpanKind::pacing;
      case FlowPhase::ropr: return SpanKind::ropr_repair;
      case FlowPhase::fallback: return SpanKind::fallback;
      case FlowPhase::transfer:
      case FlowPhase::done: break;
    }
    return SpanKind::blast;
  }

  const sim::Simulator& clock_;
  Tape& tape_;
  TransportProbes& transport_;
  SchemeProbes& scheme_;
  SpanRecorder& spans_;
  FlowPhase phase_ = FlowPhase::done;  ///< `done` = no phase yet (pre-start)
  std::uint32_t span_flow_ = 0;   ///< root flow span id (0 = none)
  std::uint32_t span_phase_ = 0;  ///< current phase span id (0 = none)
  std::uint32_t span_rto_ = 0;    ///< open RTO-recovery span id (0 = none)
};

/// One link's telemetry: its tape of fault hits and queue drops. The
/// link's egress queue records through the same track.
class LinkTrack {
 public:
  LinkTrack(const sim::Simulator& clock, Tape& tape)
      : clock_{clock}, tape_{tape} {}
  LinkTrack(const LinkTrack&) = delete;
  LinkTrack& operator=(const LinkTrack&) = delete;

  /// The fault hook hit `p` with `kind`.
  void fault_hit(FaultKind kind, const net::Packet& p) HB_EFFECTS() {
    tape_.record(clock_.now(), TapeEventKind::fault_hit,
                 static_cast<std::uint32_t>(kind), p.uid);
  }

  /// The queue discarded `p`.
  void queue_drop(const net::Packet& p) HB_EFFECTS() {
    tape_.record(clock_.now(), TapeEventKind::queue_drop, p.seq, p.flow);
  }

 private:
  const sim::Simulator& clock_;
  Tape& tape_;
};

}  // namespace halfback::telemetry
