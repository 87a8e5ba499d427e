// Throughput-over-time traces (§4.3.4, Fig. 15): how a newly arriving
// short flow disturbs a saturated background TCP flow.
#pragma once

#include <string>
#include <vector>

#include "exp/rig.h"
#include "net/topology.h"
#include "sim/bytes.h"

namespace halfback::exp {

/// The four Fig. 15 panels.
enum class TraceScenario {
  optimal,        ///< (a) short flow delivered as one immediate burst
  halfback,       ///< (b) short flow runs Halfback
  single_tcp,     ///< (c) short flow runs TCP
  two_tcp_halves  ///< (d) two TCP flows, each with half the bytes
};

const char* to_string(TraceScenario scenario);

struct TraceConfig {
  net::DumbbellConfig dumbbell;
  std::uint64_t seed = 1;
  transport::SenderConfig sender_config;
  schemes::HalfbackConfig halfback_config;
  sim::Bytes short_bytes = 100'000;
  sim::Bytes background_bytes = 20'000'000;
  sim::Time short_start = sim::Time::seconds(1);  ///< after bg reaches full rate
  sim::Time bucket = sim::Time::milliseconds(60); ///< the paper's 60 ms bins
  sim::Time duration = sim::Time::seconds(4);
};

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

TraceResult run_trace(const TraceConfig& config, TraceScenario scenario);

}  // namespace halfback::exp
