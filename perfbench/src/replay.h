// Replays: one campaign run rebuilt from the public calls its runner makes
// (net::build_dumbbell / net::build_access_path, Network::install_auditor,
// TransportAgent, schemes::make_sender + TransportAgent::start_flow, the
// fault injectors), with spans and counts at the seams the runners do not
// expose:
//  - a forwarding audit::Auditor around the audit::InvariantAuditor;
//  - a chained net::Node local handler on every host;
//  - a forwarding net::FaultHook around each netfault::FaultInjector.
// A replay must reproduce the runner's trace hash for the same seed;
// otherwise it is not the same program.
#pragma once

#include <cstdint>
#include <string>

#include "campaign.h"
#include "sim/dispatch_profiler.h"
#include "spans.h"

namespace perfbench {

/// Span names a replay records, interned once per recorder.
struct ReplayNames {
  explicit ReplayNames(SpanRecorder& recorder);
  std::uint32_t run;                ///< exp.run: the whole replay
  std::uint32_t setup;              ///< exp.setup: topology, agents, auditor install
  std::uint32_t flow_setup_short;   ///< transport.flow_setup.short: make_sender + start_flow
  std::uint32_t flow_setup_bulk;    ///< transport.flow_setup.bulk (flows of 1 MB or more)
  std::uint32_t sim_run;            ///< sim.run: the dispatch loop
  std::uint32_t handler;            ///< transport.handler: a host's local handler
  std::uint32_t audit_hook;         ///< audit.hook: an InvariantAuditor hook
  std::uint32_t audit_finalize;     ///< audit.finalize
  std::uint32_t fault_transmit;     ///< netfault.on_transmit
};

struct ReplayStats {
  bool threw = false;
  std::string error;
  std::uint64_t trace_hash = 0;
  std::uint64_t audit_violations = 0;
  std::uint64_t audit_hooks = 0;     ///< forwarding-auditor calls
  std::uint64_t link_delivered = 0;  ///< on_link_delivered calls
  std::uint64_t accepted = 0;        ///< transport deliveries (all hosts)
  std::uint64_t unique_data = 0;     ///< distinct (flow, segment) data arrivals
  std::uint64_t data_sent = 0;       ///< data segments sent, all flows
  std::uint64_t queue_peak_bytes = 0;  ///< bottleneck (downlink) backlog peak
  std::uint64_t queue_drops = 0;       ///< bottleneck (downlink) drops
  std::uint64_t run_cycles = 0;        ///< cycle counter around the dispatch loop
};

/// Replay `spec` (a run of `campaign`, possibly altered) as run `run_id`
/// of `recorder`. `profiler`, when set, is installed on the simulator.
/// Never throws: an exception is reported in the stats.
ReplayStats replay(const Campaign& campaign, const RunSpec& spec, std::uint32_t run_id,
                   SpanRecorder& recorder, const ReplayNames& names,
                   halfback::sim::DispatchProfiler* profiler = nullptr);

/// The replay hash check: the replay reproduced the runner's hash.
inline bool replay_matches(std::uint64_t runner_hash, const ReplayStats& stats) {
  return !stats.threw && stats.trace_hash != 0 && stats.trace_hash == runner_hash;
}

}  // namespace perfbench
