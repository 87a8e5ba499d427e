#include "exp/emulab.h"

#include <algorithm>
#include <memory>
#include <sstream>

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
      << ";copies=" << c.halfback_config.copies_per_ack
      << ";burst=" << c.halfback_config.initial_burst_segments
      << ";drain_ns=" << c.drain.ns()
      << ";budget_events=" << c.budget.max_events
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

RoleStats RunResult::role_stats(FlowRole role) const {
  RoleStats out;
  const stats::Summary fct = fct_ms(role);
  if (fct.empty()) return out;
  double normal_retx = 0.0;
  double proactive_retx = 0.0;
  double timeouts = 0.0;
  for (const FlowResult& f : flows) {
    if (f.role != role) continue;
    out.unfinished += f.finished ? 0 : 1;
    normal_retx += static_cast<double>(f.record.normal_retx);
    proactive_retx += static_cast<double>(f.record.proactive_retx);
    timeouts += static_cast<double>(f.record.timeouts);
  }
  const auto count = static_cast<double>(fct.count());
  out.mean_fct_ms = fct.mean();
  out.median_fct_ms = fct.median();
  out.mean_normal_retx = normal_retx / count;
  out.mean_proactive_retx = proactive_retx / count;
  out.mean_timeouts = timeouts / count;
  return out;
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
  Rig rig{config_.seed};
  net::Dumbbell dumbbell = net::build_dumbbell(rig.network(), config_.dumbbell);

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

  for (net::NodeId id : dumbbell.senders) rig.add_agent(id);
  for (net::NodeId id : dumbbell.receivers) rig.add_agent(id);
  const std::size_t sender_count = dumbbell.senders.size();
  rig.install(config_.telemetry, config_.profiler, config_.budget);

  // One context per part: TCP-Cache flows share their path cache through
  // it, within a part only.
  std::vector<schemes::SchemeContext> contexts;
  contexts.reserve(parts.size());
  for (const WorkloadPart& part : parts) {
    schemes::SchemeContext& context = contexts.emplace_back();
    context.sender_config = part.sender_config.value_or(config_.sender_config);
    context.halfback_config = config_.halfback_config;
  }

  // Start i (in schedule order) is flow i + 1, on pair i mod sender_count.
  std::size_t flow_count = 0;
  for (const WorkloadPart& part : parts) flow_count += part.schedule.size();
  std::vector<FlowRole> roles;
  roles.reserve(flow_count);
  sim::Time last_arrival;
  for (std::size_t p = 0; p < parts.size(); ++p) {
    for (const workload::FlowArrival& arrival : parts[p].schedule) {
      last_arrival = std::max(last_arrival, arrival.at);
      const std::size_t pair = roles.size() % sender_count;
      rig.start_at(arrival.at, rig.agent(pair), contexts[p],
                   FlowSpec{parts[p].scheme, dumbbell.receivers[pair],
                            static_cast<net::FlowId>(roles.size() + 1),
                            arrival.bytes});
      roles.push_back(parts[p].role);
    }
  }

  rig.simulator().run_until(last_arrival + config_.drain);

  RunResult result;
  rig.finish(result);
  // Walk flows in id (creation) order before sorting by start time, so the
  // result order under start-time ties is fixed.
  for (std::size_t i = 0; i < roles.size(); ++i) {
    const transport::SenderBase* sender = rig.started(i);
    if (sender == nullptr) continue;  // arrival never fired (past drain)
    FlowResult fr;
    fr.record = sender->record();
    fr.role = roles[i];
    fr.finished = sender->complete();
    if (!fr.finished) fr.censored_fct = result.sim_end - fr.record.start_time;
    result.flows.push_back(std::move(fr));
  }
  std::sort(result.flows.begin(), result.flows.end(),
            [](const FlowResult& a, const FlowResult& b) {
              return a.record.start_time < b.record.start_time;
            });
  result.bottleneck_drops_total =
      dumbbell.bottleneck_forward->queue().stats().dropped_packets;
  result.bottleneck_utilization =
      dumbbell.bottleneck_forward->utilization(result.sim_end);
  for (std::size_t i = 0; i < rig.agent_count(); ++i) {
    const transport::DeliveryStats& d = rig.agent(i).delivery_stats();
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
    if (config_.telemetry != nullptr) config_.telemetry->record_injector(s);
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
