#include "exp/planetlab.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "audit/invariant_auditor.h"
#include "exp/censor.h"
#include "exp/parallel.h"
#include "schemes/factory.h"
#include "sim/random.h"
#include "telemetry/hub.h"
#include "transport/agent.h"

namespace halfback::exp {
namespace {

/// Canonical text form of the reproducibility-relevant knobs, hashed into
/// the trial manifest's config digest. Paths are derived deterministically
/// from `seed` in the constructor, so the ensemble config plus the trial
/// seed pins down the whole trial; individual path parameters need not be
/// fingerprinted.
std::string config_fingerprint(const PlanetLabConfig& c,
                               std::uint64_t trial_seed) {
  std::ostringstream out;
  out << "seed=" << c.seed << ";trial_seed=" << trial_seed
      << ";pairs=" << c.pair_count << ";bytes=" << c.flow_bytes.count()
      << ";iw=" << c.sender_config.initial_window
      << ";rwnd=" << c.sender_config.receive_window_segments
      << ";timeout_ns=" << c.per_trial_timeout.ns();
  return out.str();
}

}  // namespace

PlanetLabEnv::PlanetLabEnv(PlanetLabConfig config) : config_{config} {
  sim::Random rng{config_.seed};
  paths_.reserve(static_cast<std::size_t>(config_.pair_count));
  for (int i = 0; i < config_.pair_count; ++i) {
    PathSample p;
    // RTT: heavy-tailed around a 60 ms median (continental to
    // intercontinental), clamped to the paper's observed 0.2-400 ms. The
    // sample becomes a sim::Time here, at the boundary; no raw unit-bearing
    // double escapes.
    p.rtt = sim::Time::milliseconds(
        std::clamp(rng.lognormal(std::log(60.0), 1.1), 0.2, 400.0));
    // Bottleneck bandwidth: PlanetLab sites are well connected; a log-
    // uniform spread 8 Mbps - 1 Gbps captures the occasional slow site.
    p.bottleneck = sim::DataRate::megabits_per_second(rng.log_uniform(8.0, 1000.0));
    // Buffer: a fraction of the path BDP, floored (tiny-buffer routers are
    // what give the paced schemes their 99th-percentile losses, §4.2.1).
    const double bdp = p.bottleneck.bytes_per_second() * p.rtt.to_seconds();
    p.buffer_bytes = static_cast<std::uint64_t>(
        std::clamp(bdp * rng.uniform(0.3, 1.5), 6'000.0, 400'000.0));
    // ~30% of paths carry competing traffic (a long TCP flow).
    p.cross_traffic = rng.bernoulli(0.30);
    // A sliver of lossy (wireless / overloaded) paths.
    p.random_loss = rng.bernoulli(0.10) ? rng.uniform(0.001, 0.01) : 0.0;
    paths_.push_back(p);
  }
}

TrialResult PlanetLabEnv::run_one(schemes::Scheme scheme, const PathSample& path,
                                  std::uint64_t trial_seed,
                                  telemetry::Hub* telemetry) const {
  sim::Simulator simulator{trial_seed};
  net::Network network{simulator};

  // One auditor per trial: shards share nothing (see parallel_for), so each
  // simulator carries its own invariant checker and determinism hash.
  audit::InvariantAuditor auditor;
  network.install_auditor(auditor);

  net::AccessPathConfig apc;
  apc.rtt = path.rtt;
  apc.downlink_rate = path.bottleneck;
  apc.uplink_rate = std::max(path.bottleneck * 0.25,
                             sim::DataRate::megabits_per_second(2.0));
  apc.downlink_buffer_bytes = path.buffer_bytes;
  apc.downlink_loss_rate = path.random_loss;
  net::AccessPath ap = net::build_access_path(network, apc);

  if (telemetry != nullptr) telemetry->instrument_network(network);

  transport::TransportAgent server_agent{simulator, network, ap.server};
  transport::TransportAgent client_agent{simulator, network, ap.client};

  std::uint32_t flow_drops = 0;
  const net::FlowId kFlow = 1;
  ap.downlink->queue().set_drop_callback([&](const net::Packet& p) {
    if (p.flow == kFlow && p.type == net::PacketType::data) ++flow_drops;
  });

  schemes::SchemeContext context;
  context.sender_config = config_.sender_config;

  sim::Time flow_start;
  if (path.cross_traffic) {
    // A long-lived TCP flow fills the queue first (2 s head start).
    auto cross = schemes::make_sender(schemes::Scheme::tcp, context, simulator,
                                      network.node(ap.server), ap.client,
                                      /*flow=*/2, /*bytes=*/50'000'000);
    server_agent.start_flow(std::move(cross));
    flow_start = sim::Time::seconds(2);
  }

  transport::SenderBase* sender_ptr = nullptr;
  simulator.schedule_at(flow_start, [&] {
    auto sender = schemes::make_sender(scheme, context, simulator,
                                       network.node(ap.server), ap.client, kFlow,
                                       config_.flow_bytes);
    sender_ptr = &server_agent.start_flow(std::move(sender));
  });

  // Run until the short flow completes (or the trial times out); the
  // censor-at-deadline accounting is the shared semantics in exp/censor.h
  // (HomeNetEnv uses the identical path).
  const sim::Time deadline = flow_start + config_.per_trial_timeout;
  drive_until_complete_or_deadline(
      simulator,
      [&]() -> const transport::SenderBase* { return sender_ptr; }, deadline);

  TrialResult result;
  result.path_rtt = path.rtt;
  if (sender_ptr != nullptr) {
    result.record = sender_ptr->record();
    result.finished = sender_ptr->complete();
    result.saw_loss = flow_drops > 0 || result.record.normal_retx > 0 ||
                      result.record.timeouts > 0;
    if (!result.finished) censor_record_at(result.record, deadline);
  }
  auditor.finalize(simulator.queue().empty());
  result.trace_hash = auditor.trace_hash();
  result.audit_violations = auditor.total_violations();
  if (telemetry != nullptr) telemetry->snapshot_network(network, simulator.now());
  return result;
}

telemetry::RunManifest PlanetLabEnv::manifest(
    const TrialResult& result, schemes::Scheme scheme, std::uint64_t trial_seed,
    const telemetry::Hub* telemetry) const {
  telemetry::RunManifest m;
  m.experiment = "planetlab";
  m.scheme = schemes::name(scheme);
  m.seed = trial_seed;
  m.config_digest = telemetry::fnv1a64(config_fingerprint(config_, trial_seed));
  m.trace_hash = result.trace_hash;
  // TrialResult carries no separate sim-end clock; the completion time is
  // the flow's finish (or its censoring point for unfinished trials).
  m.sim_end = result.record.completion_time;
  if (telemetry != nullptr) {
    const telemetry::MetricRegistry& registry = telemetry->registry();
    if (const auto* e = registry.find("sim.events_dispatched")) {
      m.events_dispatched = registry.counter_at(*e).value();
    }
  }
  return m;
}

std::vector<TrialResult> PlanetLabEnv::run(schemes::Scheme scheme) const {
  std::vector<TrialResult> results(paths_.size());
  parallel_for(
      paths_.size(),
      [&](std::size_t i) {
        results[i] = run_one(scheme, paths_[i], config_.seed * 31 + i);
      },
      config_.threads);
  return results;
}

}  // namespace halfback::exp
