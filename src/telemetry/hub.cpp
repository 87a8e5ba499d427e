#include "telemetry/hub.h"

#include <string>

#include "net/link.h"
#include "net/network.h"
#include "net/queue.h"
#include "netfault/fault_injector.h"

namespace halfback::telemetry {

Hub::Hub() {
  // Registration order here IS the export order; append new metrics at the
  // end of their section so existing golden exports keep their prefix.
  sim_.events_dispatched = registry_.counter(
      "sim.events_dispatched", "events executed by the simulator loop",
      Unit::events);
  sim_.event_queue_peak = registry_.gauge(
      "sim.event_queue_peak", "high-water event-heap size", Unit::events);
  sim_.sim_end_ns = registry_.gauge(
      "sim.end_ns", "simulated clock at the final snapshot", Unit::nanoseconds);

  transport_.flows_started = registry_.counter(
      "transport.flows_started", "flows that entered start()", Unit::flows);
  transport_.flows_completed = registry_.counter(
      "transport.flows_completed", "flows fully acked", Unit::flows);
  transport_.syn_sent = registry_.counter(
      "transport.syn_sent", "SYN transmissions (including retries)",
      Unit::segments);
  transport_.syn_retx = registry_.counter(
      "transport.syn_retx", "SYN retransmissions after timeout",
      Unit::segments);
  transport_.segments_sent = registry_.counter(
      "transport.segments_sent", "first-time data segment transmissions",
      Unit::segments);
  transport_.retx_sent = registry_.counter(
      "transport.retx_sent", "loss-triggered retransmissions", Unit::segments);
  transport_.proactive_sent = registry_.counter(
      "transport.proactive_sent", "proactive (ROPR-style) redundant copies",
      Unit::segments);
  transport_.acks_received = registry_.counter(
      "transport.acks_received", "ACK segments processed", Unit::segments);
  transport_.karn_discards = registry_.counter(
      "transport.karn_discards",
      "RTT samples discarded by Karn's rule (ambiguous echo)", Unit::events);
  transport_.rto_fired = registry_.counter(
      "transport.rto_fired", "retransmission timeouts fired", Unit::events);
  transport_.scoreboard_sacked = registry_.counter(
      "transport.scoreboard_sacked",
      "scoreboard transitions outstanding -> sacked", Unit::segments);
  transport_.scoreboard_acked = registry_.counter(
      "transport.scoreboard_acked",
      "scoreboard segments retired by cumulative ack", Unit::segments);
  transport_.rtt = registry_.histogram(
      "transport.rtt_ns", "accepted RTT samples", Unit::nanoseconds);
  transport_.handshake_rtt = registry_.histogram(
      "transport.handshake_rtt_ns", "SYN to SYN-ACK round trips",
      Unit::nanoseconds);
  transport_.fct = registry_.histogram(
      "transport.fct_ns", "flow completion times", Unit::nanoseconds);

  scheme_.paced_packets = registry_.counter(
      "scheme.paced_packets", "segments sent during the paced-start phase",
      Unit::segments);
  scheme_.ropr_packets = registry_.counter(
      "scheme.ropr_packets", "proactive copies sent by ROPR", Unit::segments);
  scheme_.fallback_packets = registry_.counter(
      "scheme.fallback_packets", "segments sent after entering fallback",
      Unit::segments);
  scheme_.ropr_abandoned = registry_.counter(
      "scheme.ropr_abandoned", "ROPR passes abandoned by RTO", Unit::events);
  scheme_.rlp_abandoned = registry_.counter(
      "scheme.rlp_abandoned", "RC3 backfill credit abandoned by RTO",
      Unit::events);
  scheme_.ropr_low_water = registry_.gauge(
      "scheme.ropr_low_water",
      "segment index of the most recent ROPR proactive copy", Unit::segments);

  fault_.packets_seen = registry_.counter(
      "fault.packets_seen", "packets inspected by fault injectors",
      Unit::packets);
  fault_.drops = registry_.counter(
      "fault.drops", "packets dropped by outage/flap/Gilbert-Elliott models",
      Unit::packets);
  fault_.corruptions = registry_.counter(
      "fault.corruptions", "packets corrupted in flight", Unit::packets);
  fault_.duplications = registry_.counter(
      "fault.duplications", "extra packet copies injected", Unit::packets);
  fault_.reorders = registry_.counter(
      "fault.reorders", "packets given reorder jitter", Unit::packets);
  fault_.delay_spikes = registry_.counter(
      "fault.delay_spikes", "packets given delay spikes", Unit::packets);
}

void Hub::instrument_network(net::Network& network) {
  sim::Simulator& simulator = network.simulator();
  simulator.set_telemetry(this);
  const auto& links = network.links();
  for (std::size_t i = 0; i < links.size(); ++i) {
    Tape& tape = recorder_.tape(TrackKind::link, i,
                                "link " + std::to_string(i));
    links[i]->set_track(&link_tracks_.emplace_back(simulator, tape));
  }
}

void Hub::snapshot_network(const net::Network& network, sim::Time now) {
  sim_.sim_end_ns->set(static_cast<double>(now.ns()));
  const auto& links = network.links();
  for (std::size_t i = 0; i < links.size(); ++i) {
    const net::Link& link = *links[i];
    const std::string prefix = "net.link." + std::to_string(i) + ".";
    registry_.gauge(prefix + "queue_packets", "packets resident in the queue",
                    Unit::packets)
        ->set(static_cast<double>(link.queue().packet_count()));
    registry_.gauge(prefix + "queue_max_backlog_bytes",
                    "high-water queue backlog", Unit::bytes)
        ->set(static_cast<double>(link.queue().stats().max_backlog_bytes.count()));
    registry_.gauge(prefix + "queue_drops", "packets discarded by the queue",
                    Unit::packets)
        ->set(static_cast<double>(link.queue().stats().dropped_packets));
    registry_.gauge(prefix + "delivered_packets", "packets delivered",
                    Unit::packets)
        ->set(static_cast<double>(link.stats().delivered_packets));
    registry_.gauge(prefix + "utilization",
                    "fraction of the run spent serializing", Unit::ratio)
        ->set(link.utilization(now));
    registry_.gauge(prefix + "fault_drops", "packets dropped by fault hooks",
                    Unit::packets)
        ->set(static_cast<double>(link.stats().fault_dropped_packets));
  }
}

void Hub::record_injector(const netfault::InjectorStats& stats) {
  fault_.packets_seen->add(stats.packets_seen);
  fault_.drops->add(stats.total_drops());
  fault_.corruptions->add(stats.corrupted);
  fault_.duplications->add(stats.duplicated);
  fault_.reorders->add(stats.jittered);
  fault_.delay_spikes->add(stats.delay_spikes);
}

}  // namespace halfback::telemetry
