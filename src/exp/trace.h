// Throughput-over-time traces (§4.3.4, Fig. 15): how a newly arriving
// short flow disturbs a saturated background TCP flow.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/rig.h"
#include "sim/time.h"

namespace halfback::exp {

/// The four Fig. 15 panels.
enum class TraceScenario {
  optimal,        ///< (a) short flow delivered as one immediate burst
  halfback,       ///< (b) short flow runs Halfback
  single_tcp,     ///< (c) short flow runs TCP
  two_tcp_halves  ///< (d) two TCP flows, each with half the bytes
};

const char* to_string(TraceScenario scenario);

/// Per-flow throughput series, sampled at the receiver (unique bytes
/// delivered per bucket — "successfully transmitted packets").
struct FlowTrace {
  struct Sample {
    sim::Time bucket_start;
    double mbps = 0.0;
  };

  std::string label;
  /// One sample per bucket, from 0 to the last bucket with deliveries.
  std::vector<Sample> throughput;
  sim::Time completion;  ///< zero if the flow did not finish
};

/// One Fig. 15 panel: the background flow's trace first, then the short
/// flow(s) in start order.
struct TraceResult : RunRecord {
  std::vector<FlowTrace> flows;
};

/// Run one panel for 4 s over the default dumbbell: a 20 MB background TCP
/// flow from t = 0, and at 1 s (once it runs at full rate) 100 KB of short
/// traffic, sampled in the paper's 60 ms bins.
TraceResult run_trace(std::uint64_t seed, TraceScenario scenario);

}  // namespace halfback::exp
