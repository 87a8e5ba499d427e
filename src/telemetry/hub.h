// Telemetry Hub: one run's registry, flight recorder, span log and tracks.
//
// The Hub is owned by the experiment layer (EmulabRunner, PlanetLabEnv,
// chaos_sweep, benches) and serves one run. instrument_network() is the one
// way to attach it: it installs the hub on the simulator and gives every
// link (and its queue) a LinkTrack; each sender started afterwards takes a
// FlowTrack from the simulator's hub in start(). Recording then goes
// through those tracks (track.h) — no name lookups, no allocation, no type
// erasure after construction.
//
// Layering: this header is usable from sim/transport without linking the
// telemetry library — every member function called from those layers is
// inline, and the out-of-line pieces (the constructor that registers the
// metric catalog, instrument_network, the network/fault snapshots) are only
// invoked by code that already links halfback_telemetry.
#pragma once

#include <cstddef>
#include <deque>
#include <string>

#include "sim/annotations.h"
#include "sim/simulator.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/metric.h"
#include "telemetry/registry.h"
#include "telemetry/span.h"
#include "telemetry/track.h"

namespace halfback::net {
class Network;
}
namespace halfback::netfault {
struct InjectorStats;
}

namespace halfback::telemetry {

class Hub {
 public:
  /// Event-core instruments (sim layer).
  struct SimProbes {
    Counter* events_dispatched = nullptr;
    Gauge* event_queue_peak = nullptr;  ///< high-water event-heap size
    Gauge* sim_end_ns = nullptr;        ///< clock at final snapshot
  };

  /// Fault-injection instruments, per cause (netfault layer). Filled by
  /// record_injector() at end of run from each injector's InjectorStats.
  struct FaultProbes {
    Counter* packets_seen = nullptr;
    Counter* drops = nullptr;        ///< outage + flap + Gilbert–Elliott
    Counter* corruptions = nullptr;
    Counter* duplications = nullptr;
    Counter* reorders = nullptr;
    Counter* delay_spikes = nullptr;
  };

  /// Registers the whole metric catalog (see docs/telemetry.md) so probe
  /// bundles are valid immediately and export order is fixed regardless of
  /// which components end up recording.
  Hub();
  Hub(const Hub&) = delete;
  Hub& operator=(const Hub&) = delete;

  MetricRegistry& registry() { return registry_; }
  const MetricRegistry& registry() const { return registry_; }
  FlightRecorder& recorder() { return recorder_; }
  const FlightRecorder& recorder() const { return recorder_; }

  SimProbes& sim() { return sim_; }
  TransportProbes& transport() { return transport_; }
  SchemeProbes& scheme() { return scheme_; }
  FaultProbes& fault() { return fault_; }

  SpanRecorder& spans() { return spans_; }
  const SpanRecorder& spans() const { return spans_; }

  /// Batched event-dispatch hook: the simulator's dispatch loops track
  /// the count and the integer heap peak locally and flush once when a
  /// run slice exits, keeping the per-event telemetry cost to an integer
  /// compare. Final metric values equal per-event updates; only a hub
  /// read from *inside* a running callback would notice the deferral,
  /// and these two are end-of-run metrics.
  void on_run_slice_done(std::uint64_t dispatched, std::size_t heap_peak) {
    sim_.events_dispatched->add(dispatched);
    sim_.event_queue_peak->set_max(static_cast<double>(heap_peak));
  }

  /// Install this hub on `network`: set the simulator's telemetry pointer
  /// and give every existing link and its queue a LinkTrack (tape "link i").
  /// Call after the topology is final and before traffic starts (links
  /// created later are simply not tracked).
  void instrument_network(net::Network& network);

  /// A new track for flow `flow` of `scheme`, recording on `clock`. Called
  /// by SenderBase::start() on a simulator carrying this hub: creates the
  /// flow's tape ("<scheme> flow <id>").
  FlowTrack& flow_track(const sim::Simulator& clock, std::uint64_t flow,
                        const std::string& scheme) {
    Tape& tape = recorder_.tape(TrackKind::flow, flow,
                                scheme + " flow " + std::to_string(flow));
    return flow_tracks_.emplace_back(clock, tape, transport_, scheme_, spans_);
  }

  /// Snapshot per-link queue/drop/utilization gauges from `network` at
  /// `now`. Links are numbered in creation order, so repeated snapshots
  /// update the same instruments and export order is deterministic.
  void snapshot_network(const net::Network& network, sim::Time now)
      HB_EFFECTS(alloc, throw, block);

  /// Fold one injector's per-cause totals into the fault counters. Call
  /// once per injector at end of run.
  void record_injector(const netfault::InjectorStats& stats);

 private:
  MetricRegistry registry_;
  FlightRecorder recorder_;
  SpanRecorder spans_;
  std::deque<FlowTrack> flow_tracks_;  ///< stable addresses, one per flow
  std::deque<LinkTrack> link_tracks_;  ///< one per instrumented link
  SimProbes sim_;
  TransportProbes transport_;
  SchemeProbes scheme_;
  FaultProbes fault_;
};

}  // namespace halfback::telemetry
