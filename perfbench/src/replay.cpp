#include "replay.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_set>
#include <utility>
#include <vector>

#include "audit/invariant_auditor.h"
#include "exp/censor.h"
#include "net/topology.h"
#include "netfault/fault_injector.h"
#include "schemes/factory.h"
#include "sim/budget.h"
#include "transport/agent.h"

namespace perfbench {
namespace hb = halfback;

ReplayNames::ReplayNames(SpanRecorder& recorder)
    : run{recorder.name_id("exp.run")},
      setup{recorder.name_id("exp.setup")},
      flow_setup_short{recorder.name_id("transport.flow_setup.short")},
      flow_setup_bulk{recorder.name_id("transport.flow_setup.bulk")},
      sim_run{recorder.name_id("sim.run")},
      handler{recorder.name_id("transport.handler")},
      audit_hook{recorder.name_id("audit.hook")},
      audit_finalize{recorder.name_id("audit.finalize")},
      fault_transmit{recorder.name_id("netfault.on_transmit")} {}

namespace {

using hb::net::Link;
using hb::net::Packet;
using hb::net::PacketQueue;
using hb::sim::Time;

constexpr std::uint64_t kBulkBytes = 1'000'000;

/// Forwards every hook to the invariant auditor inside a sampled span.
class ForwardingAuditor final : public hb::audit::Auditor {
 public:
  ForwardingAuditor(hb::audit::Auditor& inner, SpanRecorder& recorder, std::uint32_t name)
      : inner_{inner}, recorder_{recorder}, name_{name} {}

  std::uint64_t calls() const { return calls_; }
  std::uint64_t delivered() const { return delivered_; }

  void on_event_scheduled(Time now, Time at) override {
    hook([&] { inner_.on_event_scheduled(now, at); });
  }
  void on_event_run(Time at, std::uint64_t seq) override {
    hook([&] { inner_.on_event_run(at, seq); });
  }
  void on_link_registered(const Link& link) override {
    hook([&] { inner_.on_link_registered(link); });
  }
  void on_link_offered(const Link& link, const Packet& p) override {
    hook([&] { inner_.on_link_offered(link, p); });
  }
  void on_link_filtered(const Link& link, const Packet& p) override {
    hook([&] { inner_.on_link_filtered(link, p); });
  }
  void on_link_corrupted(const Link& link, const Packet& p) override {
    hook([&] { inner_.on_link_corrupted(link, p); });
  }
  void on_link_delivered(const Link& link, const Packet& p) override {
    ++delivered_;
    hook([&] { inner_.on_link_delivered(link, p); });
  }
  void on_link_fault_dropped(const Link& link, const Packet& p) override {
    hook([&] { inner_.on_link_fault_dropped(link, p); });
  }
  void on_link_fault_duplicated(const Link& link, const Packet& p) override {
    hook([&] { inner_.on_link_fault_duplicated(link, p); });
  }
  void on_link_fault_corrupted(const Link& link, const Packet& p) override {
    hook([&] { inner_.on_link_fault_corrupted(link, p); });
  }
  void on_queue_enqueued(const PacketQueue& q, const Packet& p) override {
    hook([&] { inner_.on_queue_enqueued(q, p); });
  }
  void on_queue_dropped(const PacketQueue& q, const Packet& p,
                        hb::audit::DropContext context) override {
    hook([&] { inner_.on_queue_dropped(q, p, context); });
  }
  void on_queue_dequeued(const PacketQueue& q, const Packet& p) override {
    hook([&] { inner_.on_queue_dequeued(q, p); });
  }
  void on_node_received(std::uint32_t node, const Packet& p) override {
    hook([&] { inner_.on_node_received(node, p); });
  }
  void on_segment_sent(const hb::transport::Scoreboard& sb, std::uint64_t flow,
                       const std::string& scheme, std::uint32_t seq, bool proactive,
                       std::uint64_t uid) override {
    hook([&] { inner_.on_segment_sent(sb, flow, scheme, seq, proactive, uid); });
  }
  void on_ack_applied(const hb::transport::Scoreboard& sb, std::uint64_t flow,
                      const Packet& ack, const hb::transport::AckUpdate& update) override {
    hook([&] { inner_.on_ack_applied(sb, flow, ack, update); });
  }

 private:
  template <class F>
  void hook(F&& f) {
    ++calls_;
    recorder_.sampled(name_, f);
  }

  hb::audit::Auditor& inner_;
  SpanRecorder& recorder_;
  std::uint32_t name_;
  std::uint64_t calls_ = 0;
  std::uint64_t delivered_ = 0;
};

/// Forwards on_transmit to a fault injector inside a sampled span.
class ForwardingFaultHook final : public hb::net::FaultHook {
 public:
  ForwardingFaultHook(hb::netfault::FaultInjector& inner, SpanRecorder& recorder,
                      std::uint32_t name)
      : inner_{inner}, recorder_{recorder}, name_{name} {}

  hb::net::FaultDecision on_transmit(const Packet& packet, Time now) override {
    hb::net::FaultDecision decision;
    recorder_.sampled(name_, [&] { decision = inner_.on_transmit(packet, now); });
    return decision;
  }

 private:
  hb::netfault::FaultInjector& inner_;
  SpanRecorder& recorder_;
  std::uint32_t name_;
};

/// Chain a sampled span in front of the handler the transport agent
/// installed on `node`, noting each intact data arrival as
/// (flow << 32) | segment in `data_seen`.
void chain_handler(hb::net::Node& node, SpanRecorder& recorder, std::uint32_t name,
                   std::unordered_set<std::uint64_t>& data_seen) {
  std::function<void(Packet)> inner = node.local_handler();
  node.set_local_handler([inner = std::move(inner), &recorder, name, &data_seen](Packet p) {
    if (p.type == hb::net::PacketType::data && !p.corrupted) {
      data_seen.insert((static_cast<std::uint64_t>(p.flow) << 32) | p.seq);
    }
    recorder.sampled(name, [&] { inner(std::move(p)); });
  });
}

/// make_sender + start_flow inside a flow-setup span.
hb::transport::SenderBase* start_flow(hb::transport::TransportAgent& agent,
                                      hb::schemes::Scheme scheme,
                                      hb::schemes::SchemeContext& context,
                                      hb::sim::Simulator& simulator,
                                      hb::net::Network& network, hb::net::NodeId peer,
                                      hb::net::FlowId flow, std::uint64_t bytes,
                                      SpanRecorder& recorder, const ReplayNames& names) {
  hb::transport::SenderBase* ref = nullptr;
  recorder.span(bytes >= kBulkBytes ? names.flow_setup_bulk : names.flow_setup_short, [&] {
    auto sender = hb::schemes::make_sender(scheme, context, simulator,
                                           network.node(agent.node_id()), peer, flow, bytes);
    ref = &agent.start_flow(std::move(sender));
  });
  return ref;
}

/// Everything a replay owns, in destruction-safe order: senders and agents
/// go before the network, the network before the simulator.
struct Rig {
  explicit Rig(std::uint64_t seed, SpanRecorder& recorder, const ReplayNames& names)
      : simulator{seed}, network{simulator}, auditor{checker, recorder, names.audit_hook} {}
  hb::sim::Simulator simulator;
  hb::audit::InvariantAuditor checker;
  hb::net::Network network;
  ForwardingAuditor auditor;
  std::unordered_set<std::uint64_t> data_seen;
  std::vector<std::unique_ptr<hb::netfault::FaultInjector>> injectors;
  std::vector<std::unique_ptr<ForwardingFaultHook>> fault_hooks;
  std::vector<std::unique_ptr<hb::transport::TransportAgent>> agents;
  std::vector<hb::transport::SenderBase*> senders;
};

void finish(Rig& rig, SpanRecorder& recorder, const ReplayNames& names,
            const hb::net::Link& bottleneck, ReplayStats& stats) {
  recorder.span(names.audit_finalize,
                [&] { rig.checker.finalize(rig.simulator.queue().empty()); });
  stats.trace_hash = rig.checker.trace_hash();
  stats.audit_violations = rig.checker.total_violations();
  stats.audit_hooks = rig.auditor.calls();
  stats.link_delivered = rig.auditor.delivered();
  for (const auto& agent : rig.agents) stats.accepted += agent->delivery_stats().accepted;
  stats.unique_data = rig.data_seen.size();
  for (const hb::transport::SenderBase* s : rig.senders) {
    if (s != nullptr) stats.data_sent += s->record().data_packets_sent;
  }
  stats.queue_peak_bytes = bottleneck.queue().stats().max_backlog_bytes.count();
  stats.queue_drops = bottleneck.queue().stats().dropped_packets;
}

/// Mirrors exp::EmulabRunner::run.
void replay_dumbbell(const RunSpec& spec, Rig& rig, SpanRecorder& recorder,
                     const ReplayNames& names, hb::sim::DispatchProfiler* profiler,
                     ReplayStats& stats) {
  const hb::exp::EmulabRunner::Config& config = spec.runner;
  hb::net::Dumbbell dumbbell;
  recorder.span(names.setup, [&] {
    rig.network.install_auditor(rig.auditor);
    dumbbell = hb::net::build_dumbbell(rig.network, config.dumbbell);
    if (config.faults.any()) {
      hb::sim::Random fault_seed_stream{config.seed ^ 0xfa317c0de5eedULL};
      for (std::uint64_t salt : {0xf0ULL, 0x0fULL}) {
        rig.injectors.push_back(std::make_unique<hb::netfault::FaultInjector>(
            config.faults, fault_seed_stream.fork(salt)));
        rig.fault_hooks.push_back(std::make_unique<ForwardingFaultHook>(
            *rig.injectors.back(), recorder, names.fault_transmit));
      }
      dumbbell.bottleneck_forward->set_fault_hook(rig.fault_hooks[0].get());
      dumbbell.bottleneck_reverse->set_fault_hook(rig.fault_hooks[1].get());
    }
    for (const auto& hosts : {dumbbell.senders, dumbbell.receivers}) {
      for (hb::net::NodeId id : hosts) {
        rig.agents.push_back(
            std::make_unique<hb::transport::TransportAgent>(rig.simulator, rig.network, id));
        chain_handler(rig.network.node(id), recorder, names.handler, rig.data_seen);
      }
    }
  });

  hb::schemes::SchemeContext base_context;
  base_context.sender_config = config.sender_config;
  base_context.halfback_config = config.halfback_config;
  std::vector<hb::schemes::SchemeContext> contexts;
  contexts.reserve(spec.parts.size());
  for (const hb::exp::WorkloadPart& part : spec.parts) {
    hb::schemes::SchemeContext context = base_context;
    if (part.sender_config.has_value()) context.sender_config = *part.sender_config;
    contexts.push_back(std::move(context));
  }

  const std::size_t sender_count = dumbbell.senders.size();
  hb::net::FlowId next_flow = 1;
  std::size_t next_pair = 0;
  Time last_arrival;
  for (std::size_t p = 0; p < spec.parts.size(); ++p) {
    const hb::exp::WorkloadPart& part = spec.parts[p];
    for (const hb::workload::FlowArrival& arrival : part.schedule) {
      last_arrival = std::max(last_arrival, arrival.at);
      const hb::net::FlowId flow = next_flow++;
      const std::size_t pair = next_pair++ % sender_count;
      rig.simulator.schedule_at(arrival.at, [&, p, flow, pair, bytes = arrival.bytes] {
        rig.senders.push_back(start_flow(*rig.agents[pair], spec.parts[p].scheme, contexts[p],
                                         rig.simulator, rig.network,
                                         dumbbell.receivers[pair], flow, bytes, recorder,
                                         names));
      });
    }
  }

  std::optional<hb::sim::BudgetEnforcer> enforcer;
  if (config.budget.any()) {
    enforcer.emplace(config.budget);
    rig.simulator.set_budget(&*enforcer);
  }
  if (profiler != nullptr) rig.simulator.set_profiler(profiler);
  recorder.span(names.sim_run, [&] {
    const std::uint64_t c0 = hb::sim::read_cycle_counter();
    rig.simulator.run_until(last_arrival + config.drain);
    stats.run_cycles = hb::sim::read_cycle_counter() - c0;
  });
  finish(rig, recorder, names, *dumbbell.bottleneck_forward, stats);
}

/// Mirrors exp::PlanetLabEnv::run_one.
void replay_trial(const Campaign& campaign, const RunSpec& spec, Rig& rig,
                  SpanRecorder& recorder, const ReplayNames& names,
                  hb::sim::DispatchProfiler* profiler, ReplayStats& stats) {
  const hb::exp::PathSample& path = campaign.env->paths().at(spec.path);
  hb::net::AccessPath ap;
  recorder.span(names.setup, [&] {
    rig.network.install_auditor(rig.auditor);
    hb::net::AccessPathConfig apc;
    apc.rtt = path.rtt;
    apc.downlink_rate = path.bottleneck;
    apc.uplink_rate = std::max(path.bottleneck * 0.25,
                               hb::sim::DataRate::megabits_per_second(2.0));
    apc.downlink_buffer_bytes = path.buffer_bytes;
    apc.downlink_loss_rate = path.random_loss;
    ap = hb::net::build_access_path(rig.network, apc);
    for (hb::net::NodeId id : {ap.server, ap.client}) {
      rig.agents.push_back(
          std::make_unique<hb::transport::TransportAgent>(rig.simulator, rig.network, id));
      chain_handler(rig.network.node(id), recorder, names.handler, rig.data_seen);
    }
  });
  hb::transport::TransportAgent& server = *rig.agents[0];

  hb::schemes::SchemeContext context;
  context.sender_config = campaign.planetlab.sender_config;
  Time flow_start;
  if (path.cross_traffic) {
    rig.senders.push_back(start_flow(server, hb::schemes::Scheme::tcp, context, rig.simulator,
                                     rig.network, ap.client, /*flow=*/2,
                                     /*bytes=*/50'000'000, recorder, names));
    flow_start = Time::seconds(2);
  }
  hb::transport::SenderBase* watched = nullptr;
  rig.simulator.schedule_at(flow_start, [&] {
    watched = start_flow(server, spec.scheme, context, rig.simulator, rig.network, ap.client,
                         /*flow=*/1, campaign.planetlab.flow_bytes.count(), recorder, names);
    rig.senders.push_back(watched);
  });

  if (profiler != nullptr) rig.simulator.set_profiler(profiler);
  const Time deadline = flow_start + campaign.planetlab.per_trial_timeout;
  recorder.span(names.sim_run, [&] {
    const std::uint64_t c0 = hb::sim::read_cycle_counter();
    hb::exp::drive_until_complete_or_deadline(
        rig.simulator, [&]() -> const hb::transport::SenderBase* { return watched; },
        deadline);
    stats.run_cycles = hb::sim::read_cycle_counter() - c0;
  });
  finish(rig, recorder, names, *ap.downlink, stats);
}

}  // namespace

ReplayStats replay(const Campaign& campaign, const RunSpec& spec, std::uint32_t run_id,
                   SpanRecorder& recorder, const ReplayNames& names,
                   hb::sim::DispatchProfiler* profiler) {
  ReplayStats stats;
  recorder.begin_run(run_id);
  try {
    recorder.span(names.run, [&] {
      Rig rig{spec.trial ? spec.trial_seed : spec.runner.seed, recorder, names};
      if (spec.trial) {
        replay_trial(campaign, spec, rig, recorder, names, profiler, stats);
      } else {
        replay_dumbbell(spec, rig, recorder, names, profiler, stats);
      }
    });
  } catch (const std::exception& e) {
    stats.threw = true;
    stats.error = e.what();
  }
  return stats;
}

}  // namespace perfbench
