#include "exp/rig.h"

#include <utility>

#include "sim/dispatch_profiler.h"
#include "telemetry/hub.h"

namespace halfback::exp {

Rig::Rig(std::uint64_t seed) : simulator_{seed}, network_{simulator_} {
  network_.install_auditor(auditor_);
}

transport::TransportAgent& Rig::add_agent(net::NodeId host) {
  return *agents_.emplace_back(
      std::make_unique<transport::TransportAgent>(simulator_, network_, host));
}

void Rig::install(telemetry::Hub* hub, sim::DispatchProfiler* profiler,
                  const sim::RunBudget& budget) {
  hub_ = hub;
  if (hub != nullptr) hub->instrument_network(network_);
  // Observers only pick the dispatch-loop instantiation; with none
  // installed the run takes the plain loop.
  if (profiler != nullptr) simulator_.set_profiler(profiler);
  if (budget.any()) {
    budget_.emplace(budget);
    simulator_.set_budget(&*budget_);
  }
}

transport::SenderBase& Rig::start(transport::TransportAgent& from,
                                  schemes::SchemeContext& context,
                                  const FlowSpec& spec,
                                  transport::SenderBase::CompletionRef on_complete) {
  std::unique_ptr<transport::SenderBase> sender =
      spec.burst_window > 0
          ? schemes::make_optimal_sender(context, simulator_, from.node(), spec.to,
                                         spec.flow, spec.bytes, spec.burst_window)
          : schemes::make_sender(spec.scheme, context, simulator_, from.node(),
                                 spec.to, spec.flow, spec.bytes);
  return from.start_flow(std::move(sender), on_complete);
}

std::size_t Rig::start_at(sim::Time at, transport::TransportAgent& from,
                          schemes::SchemeContext& context, const FlowSpec& spec) {
  const std::size_t index = started_.size();
  started_.push_back(nullptr);
  simulator_.schedule_at(at, [this, &from, &context, spec, index] {
    started_[index] = &start(from, context, spec);
  });
  return index;
}

void Rig::finish(RunRecord& record) {
  auditor_.finalize(simulator_.queue().empty());
  if (hub_ != nullptr) hub_->snapshot_network(network_, simulator_.now());
  record.trace_hash = auditor_.trace_hash();
  record.audit_violations = auditor_.total_violations();
  record.events_executed = simulator_.events_executed();
  record.sim_end = simulator_.now();
  if (budget_.has_value()) record.budget_report = budget_->report();
}

}  // namespace halfback::exp
