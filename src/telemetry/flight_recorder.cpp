#include "telemetry/flight_recorder.h"

#include <cstdio>
#include <string>

namespace halfback::telemetry {

const char* to_string(FlowPhase phase) {
  switch (phase) {
    case FlowPhase::handshake: return "handshake";
    case FlowPhase::pacing: return "pacing";
    case FlowPhase::transfer: return "transfer";
    case FlowPhase::ropr: return "ropr";
    case FlowPhase::fallback: return "fallback";
    case FlowPhase::done: return "done";
  }
  return "?";
}

const char* to_string(TapeEventKind kind) {
  switch (kind) {
    case TapeEventKind::flow_start: return "flow_start";
    case TapeEventKind::syn_sent: return "syn_sent";
    case TapeEventKind::established: return "established";
    case TapeEventKind::phase_enter: return "phase_enter";
    case TapeEventKind::segment_sent: return "segment_sent";
    case TapeEventKind::retx_sent: return "retx_sent";
    case TapeEventKind::proactive_sent: return "proactive_sent";
    case TapeEventKind::ack_received: return "ack_received";
    case TapeEventKind::rtt_sample: return "rtt_sample";
    case TapeEventKind::karn_discard: return "karn_discard";
    case TapeEventKind::rto_fired: return "rto_fired";
    case TapeEventKind::ropr_abandoned: return "ropr_abandoned";
    case TapeEventKind::rlp_abandoned: return "rlp_abandoned";
    case TapeEventKind::fault_hit: return "fault_hit";
    case TapeEventKind::queue_drop: return "queue_drop";
    case TapeEventKind::complete: return "complete";
  }
  return "?";
}

namespace {

std::string ms_from_ns(std::uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f ms", static_cast<double>(ns) / 1e6);
  return buf;
}

/// The payload of `e` in words (see the TapeEventKind catalog).
std::string describe(const TapeEvent& e) {
  static constexpr const char* kFaults[] = {"drop", "corrupt", "delay",
                                            "duplicate"};
  const std::string a = std::to_string(e.a);
  switch (e.kind) {
    case TapeEventKind::flow_start: return std::to_string(e.b) + " bytes";
    case TapeEventKind::syn_sent: return "attempt " + a;
    case TapeEventKind::established:
    case TapeEventKind::rtt_sample: return "rtt " + ms_from_ns(e.b);
    case TapeEventKind::phase_enter:
      return to_string(static_cast<FlowPhase>(e.a));
    case TapeEventKind::segment_sent:
    case TapeEventKind::retx_sent:
    case TapeEventKind::proactive_sent:
    case TapeEventKind::karn_discard: return "seq " + a;
    case TapeEventKind::ack_received:
    case TapeEventKind::rlp_abandoned: return "cum_ack " + a;
    case TapeEventKind::rto_fired: return "timeout " + a;
    case TapeEventKind::ropr_abandoned: return "ropr at " + a;
    case TapeEventKind::fault_hit:
      return (e.a < 4 ? kFaults[e.a] : "?") + (" uid " + std::to_string(e.b));
    case TapeEventKind::queue_drop:
      return "flow " + std::to_string(e.b) + " seq " + a;
    case TapeEventKind::complete: return "fct " + ms_from_ns(e.b);
  }
  return {};
}

}  // namespace

std::string render_tape(const Tape& tape) {
  std::string out = tape.label() + "\n";
  if (tape.dropped() > 0) {
    out += "  (" + std::to_string(tape.dropped()) +
           " older events overwritten)\n";
  }
  for (std::size_t i = 0; i < tape.size(); ++i) {
    const TapeEvent& e = tape.event(i);
    char head[48];
    std::snprintf(head, sizeof head, "%10.3f ms  %-15s ", e.at.to_ms(),
                  to_string(e.kind));
    out += head + describe(e) + "\n";
  }
  return out;
}

}  // namespace halfback::telemetry
