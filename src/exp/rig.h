// The run rig: the one way an end-to-end simulation run is assembled.
//
// EmulabRunner, the access-path trial behind PlanetLabEnv and HomeNetEnv,
// run_trace, WebRunner, run_parking_lot, the examples and the end-to-end
// tests all build their runs on a Rig, so every run carries the same
// invariant auditor and finishes into the same RunRecord. A driver keeps
// only what differs: its topology, its workload, how it drives the clock,
// and how it shapes the result.
//
//   Rig rig{seed};                       // simulator, auditor, network
//   ...build the topology on rig.network()...
//   rig.add_agent(host);                 // once per end host
//   rig.install(hub, profiler, budget);  // optional, before the first flow
//   rig.start(...) / rig.start_at(...);  // flows
//   ...drive rig.simulator()...
//   rig.finish(result);                  // result derives from RunRecord
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "audit/invariant_auditor.h"
#include "net/network.h"
#include "schemes/factory.h"
#include "sim/budget.h"
#include "sim/bytes.h"
#include "sim/simulator.h"
#include "transport/agent.h"

namespace halfback::sim {
class DispatchProfiler;
}  // namespace halfback::sim

namespace halfback::telemetry {
class Hub;
}  // namespace halfback::telemetry

namespace halfback::exp {

/// What every run reports, whatever the driver. Driver results derive
/// from it, so a field added here reaches all of them.
struct RunRecord {
  /// From the run's invariant auditor: an order-sensitive hash of the run
  /// trace (same seed and workload => same hash) and the invariant-
  /// violation count (0 = clean run).
  std::uint64_t trace_hash = 0;
  std::uint64_t audit_violations = 0;
  /// Events the simulator dispatched over the whole run. A run whose
  /// event count explodes relative to its peers signals a scheme/fault
  /// pathology (an RTO storm, a send loop that stopped making progress)
  /// even when the run still finishes.
  std::uint64_t events_executed = 0;
  /// The simulated clock when the run was finished.
  sim::Time sim_end;
  /// Budget outcome (sim/budget.h). `tripped == BudgetTrip::none` — always
  /// the case when no budget was installed — means the run ended
  /// normally; anything else means it stopped early at the trip.
  sim::BudgetReport budget_report;
};

/// One flow handed to Rig::start or Rig::start_at.
struct FlowSpec {
  schemes::Scheme scheme = schemes::Scheme::tcp;
  net::NodeId to = 0;  ///< receiving host
  net::FlowId flow = 0;
  sim::Bytes bytes;
  /// Nonzero: send with the "optimal" reference sender instead of
  /// `scheme` — plain TCP whose initial window of this many segments lets
  /// the whole flow leave in one burst (schemes::make_optimal_sender).
  std::uint32_t burst_window = 0;
};

/// Owns one run: the simulator, the invariant auditor, the network and one
/// transport agent per end host, declared in that order so each outlives
/// everything that points into it.
class Rig {
 public:
  /// Builds the simulator and network and installs the auditor, so it
  /// registers every link the caller builds afterwards.
  explicit Rig(std::uint64_t seed);

  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  sim::Simulator& simulator() { return simulator_; }
  net::Network& network() { return network_; }
  /// The run's auditor, for its violation report().
  const audit::InvariantAuditor& auditor() const { return auditor_; }

  /// Put a transport agent on `host`. Agents are indexed in call order.
  transport::TransportAgent& add_agent(net::NodeId host);
  transport::TransportAgent& agent(std::size_t index) { return *agents_[index]; }
  std::size_t agent_count() const { return agents_.size(); }

  /// Install the optional observers and budget, each owned by the caller
  /// except the budget's enforcer: `hub` instruments every link (so call
  /// after the topology is built) and every flow started afterwards;
  /// `profiler` attributes dispatch cost per event type; a `budget` with
  /// any limit set aborts the run at its trip. None of them changes the
  /// trace hash of a run that finishes.
  void install(telemetry::Hub* hub, sim::DispatchProfiler* profiler,
               const sim::RunBudget& budget);

  /// Build `spec`'s sender on `from`'s host (schemes::make_sender, or
  /// make_optimal_sender for a burst window) and start it now.
  /// `on_complete` follows TransportAgent::start_flow's contract.
  transport::SenderBase& start(transport::TransportAgent& from,
                               schemes::SchemeContext& context,
                               const FlowSpec& spec,
                               transport::SenderBase::CompletionRef on_complete = {});

  /// start() `spec` at `at`, on a shim event scheduled now: such starts
  /// fire in time order and, at equal times, in call order. `from` and
  /// `context` must outlive the event. Returns the start's index for
  /// started().
  std::size_t start_at(sim::Time at, transport::TransportAgent& from,
                       schemes::SchemeContext& context, const FlowSpec& spec);

  /// The sender of start_at() call `index`; nullptr until its event fires.
  transport::SenderBase* started(std::size_t index) const {
    return started_[index];
  }

  /// End the run: finalize the audit, snapshot the installed hub, and
  /// fill `record`. Call once, after the last dispatch.
  void finish(RunRecord& record);

 private:
  sim::Simulator simulator_;
  audit::InvariantAuditor auditor_;
  net::Network network_;
  std::vector<std::unique_ptr<transport::TransportAgent>> agents_;
  std::vector<transport::SenderBase*> started_;
  telemetry::Hub* hub_ = nullptr;
  std::optional<sim::BudgetEnforcer> budget_;
};

}  // namespace halfback::exp
