#include "exp/emulab.h"

#include <algorithm>
#include <sstream>

#include "audit/invariant_auditor.h"
#include "telemetry/hub.h"

namespace halfback::exp {
namespace {

/// Canonical text form of the reproducibility-relevant config knobs, hashed
/// into the run manifest's config digest. Append-only: adding a field
/// changes every digest, which is fine (digests compare within one
/// version), but keep the order stable within a version.
std::string config_fingerprint(const EmulabRunner::Config& c) {
  std::ostringstream out;
  out << "seed=" << c.seed << ";senders=" << c.dumbbell.sender_count
      << ";receivers=" << c.dumbbell.receiver_count
      << ";access_bps=" << c.dumbbell.access_rate.bps()
      << ";bottleneck_bps=" << c.dumbbell.bottleneck_rate.bps()
      << ";rtt_ns=" << c.dumbbell.rtt.ns()
      << ";buffer=" << c.dumbbell.bottleneck_buffer_bytes.count()
      << ";queue=" << static_cast<int>(c.dumbbell.bottleneck_queue)
      << ";iw=" << c.sender_config.initial_window
      << ";rwnd=" << c.sender_config.receive_window_segments
      << ";threshold=" << c.halfback_config.pacing_threshold_segments
      << ";order=" << static_cast<int>(c.halfback_config.order)
      << ";rate=" << static_cast<int>(c.halfback_config.rate)
      << ";copies=" << c.halfback_config.copies_per_ack
      << ";burst=" << c.halfback_config.initial_burst_segments
      << ";drain_ns=" << c.drain.ns()
      << ";budget_events=" << c.budget.max_events
      << ";budget_horizon_ns=" << c.budget.max_sim_time.ns()
      << ";storm_window=" << c.budget.storm_window
      << ";storm_rate=" << c.budget.storm_events_per_sim_second
      << ";faults=" << c.faults.any()
      << ";ge=" << c.faults.gilbert_elliott.p_good_to_bad.value()
      << ";corrupt=" << c.faults.corrupt.probability.value()
      << ";dup=" << c.faults.duplicate.probability.value()
      << ";reorder=" << c.faults.reorder.probability.value()
      << ";spike=" << c.faults.delay_spike.probability.value()
      << ";outages=" << c.faults.outages.size();
  return out.str();
}

}  // namespace

double RunResult::mean_fct_ms(FlowRole role) const {
  stats::Summary s = fct_ms(role);
  return s.empty() ? 0.0 : s.mean();
}

stats::Summary RunResult::fct_ms(FlowRole role, bool include_censored) const {
  stats::Summary s;
  for (const FlowResult& f : flows) {
    if (f.role != role) continue;
    if (f.finished) {
      s.add(f.record.fct().to_ms());
    } else if (include_censored) {
      s.add(f.censored_fct.to_ms());
    }
  }
  return s;
}

stats::Summary RunResult::metric(FlowRole role,
                                 double (*extract)(const FlowResult&)) const {
  stats::Summary s;
  for (const FlowResult& f : flows) {
    if (f.role == role) s.add(extract(f));
  }
  return s;
}

std::size_t RunResult::finished_count(FlowRole role) const {
  std::size_t n = 0;
  for (const FlowResult& f : flows) n += (f.role == role && f.finished) ? 1 : 0;
  return n;
}

std::size_t RunResult::unfinished_count(FlowRole role) const {
  std::size_t n = 0;
  for (const FlowResult& f : flows) n += (f.role == role && !f.finished) ? 1 : 0;
  return n;
}

RunResult EmulabRunner::run(const std::vector<WorkloadPart>& parts) {
  sim::Simulator simulator{config_.seed};
  net::Network network{simulator};

  audit::InvariantAuditor auditor;
  network.install_auditor(auditor);

  net::Dumbbell dumbbell = net::build_dumbbell(network, config_.dumbbell);

  // Chaos layer: when faults are configured, each bottleneck direction gets
  // its own deterministic injector. The RNGs derive from the experiment
  // seed (salted per direction) rather than the simulator's live stream, so
  // arrival processes, link loss draws, etc. are exactly those of the
  // fault-free run with the same seed.
  std::unique_ptr<netfault::FaultInjector> fault_forward;
  std::unique_ptr<netfault::FaultInjector> fault_reverse;
  if (config_.faults.any()) {
    sim::Random fault_seed_stream{config_.seed ^ 0xfa317c0de5eedULL};
    fault_forward = std::make_unique<netfault::FaultInjector>(
        config_.faults, fault_seed_stream.fork(0xf0));
    fault_reverse = std::make_unique<netfault::FaultInjector>(
        config_.faults, fault_seed_stream.fork(0x0f));
    dumbbell.bottleneck_forward->set_fault_hook(fault_forward.get());
    dumbbell.bottleneck_reverse->set_fault_hook(fault_reverse.get());
  }

  if (config_.telemetry != nullptr) {
    config_.telemetry->instrument_network(network);
  }

  std::vector<std::unique_ptr<transport::TransportAgent>> agents;
  for (net::NodeId id : dumbbell.senders) {
    agents.push_back(std::make_unique<transport::TransportAgent>(simulator, network, id));
  }
  for (net::NodeId id : dumbbell.receivers) {
    agents.push_back(std::make_unique<transport::TransportAgent>(simulator, network, id));
  }
  const std::size_t sender_count = dumbbell.senders.size();

  // Per-flow bottleneck loss accounting (data direction).
  std::unordered_map<net::FlowId, std::uint32_t> drops;
  dumbbell.bottleneck_forward->queue().set_drop_callback(
      [&drops](const net::Packet& p) {
        if (p.type == net::PacketType::data) ++drops[p.flow];
      });

  schemes::SchemeContext base_context;
  base_context.sender_config = config_.sender_config;
  base_context.halfback_config = config_.halfback_config;

  struct LiveFlow {
    transport::SenderBase* sender = nullptr;
    FlowRole role = FlowRole::primary;
  };
  std::unordered_map<net::FlowId, LiveFlow> live;
  net::FlowId next_flow = 1;
  std::size_t next_pair = 0;
  sim::Time last_arrival;

  // One context per part (they share the path cache through base_context's
  // copy only if created here; TCP-Cache parts share within a part).
  std::vector<schemes::SchemeContext> contexts;
  contexts.reserve(parts.size());
  for (const WorkloadPart& part : parts) {
    schemes::SchemeContext context = base_context;
    if (part.sender_config.has_value()) context.sender_config = *part.sender_config;
    contexts.push_back(std::move(context));
  }

  for (std::size_t part_index = 0; part_index < parts.size(); ++part_index) {
    const WorkloadPart& part = parts[part_index];
    schemes::SchemeContext& context = contexts[part_index];
    for (const workload::FlowArrival& arrival : part.schedule) {
      last_arrival = std::max(last_arrival, arrival.at);
      const net::FlowId flow = next_flow++;
      const std::size_t pair = next_pair++ % sender_count;
      const schemes::Scheme scheme = part.scheme;
      const FlowRole role = part.role;
      const std::uint64_t bytes = arrival.bytes;
      simulator.schedule_at(arrival.at, [&, &context = context, flow, pair, scheme, role,
                                         bytes] {
        auto sender = schemes::make_sender(
            scheme, context, simulator, network.node(dumbbell.senders[pair]),
            dumbbell.receivers[pair], flow, bytes);
        transport::SenderBase& ref =
            agents[pair]->start_flow(std::move(sender));
        live[flow] = LiveFlow{&ref, role};
      });
    }
  }

  // Budgets: installing an enforcer switches the simulator onto the
  // budgeted dispatch loop; with neither a budget nor a watchdog the run
  // stays on the seed's unbudgeted path. The watchdog needs the enforcer
  // even when no deterministic limit is set — the budgeted loop is what
  // polls the abort flag and records the wall_clock trip.
  std::optional<sim::BudgetEnforcer> enforcer;
  if (config_.budget.any() || config_.wall_limit.count() > 0) {
    enforcer.emplace(config_.budget);
    simulator.set_budget(&*enforcer);
  }
  // Observers only pick the dispatch-loop instantiation; with none
  // installed the run takes the plain loop.
  if (config_.profiler != nullptr) simulator.set_profiler(config_.profiler);
  {
    std::optional<sim::WallClockWatchdog> watchdog;
    if (config_.wall_limit.count() > 0) {
      watchdog.emplace(simulator, config_.wall_limit);
    }
    simulator.run_until(last_arrival + config_.drain);
    // Scope exit disarms and joins the watchdog: from here on the run is
    // single-threaded again and fired() is stable.
  }

  RunResult result;
  result.sim_end = simulator.now();
  result.events_executed = simulator.events_executed();
  if (enforcer.has_value()) result.budget_report = enforcer->report();
  // Walk flows in id (creation) order: iterating the unordered map directly
  // would make result order — and FCT stats under start-time ties — depend
  // on hash layout.
  for (net::FlowId flow = 1; flow < next_flow; ++flow) {
    const auto live_it = live.find(flow);
    if (live_it == live.end()) continue;  // arrival never fired (past drain)
    LiveFlow& live_flow = live_it->second;
    FlowResult fr;
    fr.record = live_flow.sender->record();
    fr.role = live_flow.role;
    fr.finished = live_flow.sender->complete();
    if (!fr.finished) fr.censored_fct = simulator.now() - fr.record.start_time;
    auto it = drops.find(flow);
    if (it != drops.end()) fr.bottleneck_drops = it->second;
    result.flows.push_back(std::move(fr));
  }
  std::sort(result.flows.begin(), result.flows.end(),
            [](const FlowResult& a, const FlowResult& b) {
              return a.record.start_time < b.record.start_time;
            });
  result.bottleneck_drops_total =
      dumbbell.bottleneck_forward->queue().stats().dropped_packets;
  result.bottleneck_utilization =
      dumbbell.bottleneck_forward->utilization(simulator.now());
  for (const auto& agent : agents) {
    const transport::DeliveryStats& d = agent->delivery_stats();
    result.delivery.accepted += d.accepted;
    result.delivery.corrupted_rejected += d.corrupted_rejected;
    result.delivery.duplicate_rejected += d.duplicate_rejected;
  }
  for (const netfault::FaultInjector* injector :
       {fault_forward.get(), fault_reverse.get()}) {
    if (injector == nullptr) continue;
    const netfault::InjectorStats& s = injector->stats();
    result.faults.packets_seen += s.packets_seen;
    result.faults.outage_drops += s.outage_drops;
    result.faults.flap_drops += s.flap_drops;
    result.faults.burst_drops += s.burst_drops;
    result.faults.corrupted += s.corrupted;
    result.faults.duplicated += s.duplicated;
    result.faults.jittered += s.jittered;
    result.faults.delay_spikes += s.delay_spikes;
  }
  auditor.finalize(simulator.queue().empty());
  result.trace_hash = auditor.trace_hash();
  result.audit_violations = auditor.total_violations();
  if (config_.telemetry != nullptr) {
    config_.telemetry->snapshot_network(network, simulator.now());
    for (const netfault::FaultInjector* injector :
         {fault_forward.get(), fault_reverse.get()}) {
      if (injector != nullptr) config_.telemetry->record_injector(injector->stats());
    }
  }
  return result;
}

telemetry::RunManifest EmulabRunner::manifest(const RunResult& result,
                                              std::string experiment) const {
  telemetry::RunManifest m;
  m.experiment = std::move(experiment);
  m.seed = config_.seed;
  m.config_digest = telemetry::fnv1a64(config_fingerprint(config_));
  m.trace_hash = result.trace_hash;
  m.sim_end = result.sim_end;
  if (config_.telemetry != nullptr) {
    const telemetry::MetricRegistry& registry = config_.telemetry->registry();
    if (const auto* e = registry.find("sim.events_dispatched")) {
      m.events_dispatched = registry.counter_at(*e).value();
    }
  }
  if (config_.profiler != nullptr) {
    for (const sim::DispatchProfiler::Row& row : config_.profiler->rows()) {
      m.profile.push_back(telemetry::RunManifest::ProfileRow{
          row.type_name, row.count, row.cycles});
    }
  }
  return m;
}

}  // namespace halfback::exp
