#include "exp/planetlab.h"

#include <algorithm>
#include <cmath>

#include "exp/censor.h"
#include "exp/parallel.h"
#include "sim/random.h"

namespace halfback::exp {

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

TrialResult run_access_trial(const AccessTrial& trial, schemes::Scheme scheme,
                             std::uint64_t seed, telemetry::Hub* telemetry) {
  Rig rig{seed};
  net::AccessPath ap = net::build_access_path(rig.network(), trial.path);
  transport::TransportAgent& server = rig.add_agent(ap.server);
  rig.add_agent(ap.client);
  rig.install(telemetry, nullptr, {});

  std::uint32_t flow_drops = 0;
  const net::FlowId kFlow = 1;
  ap.downlink->queue().set_drop_callback([&](const net::Packet& p) {
    if (p.flow == kFlow && p.type == net::PacketType::data) ++flow_drops;
  });

  schemes::SchemeContext context;
  context.sender_config = trial.sender_config;

  sim::Time flow_start;
  if (trial.cross_traffic) {
    // A long-lived TCP flow fills the queue first (2 s head start).
    rig.start(server, context,
              FlowSpec{schemes::Scheme::tcp, ap.client, /*flow=*/2,
                       /*bytes=*/50'000'000});
    flow_start = sim::Time::seconds(2);
  }
  const std::size_t watched = rig.start_at(
      flow_start, server, context, FlowSpec{scheme, ap.client, kFlow, trial.flow_bytes});

  // Run until the short flow completes (or the trial times out); the
  // censor-at-deadline accounting is the shared semantics in exp/censor.h.
  const sim::Time deadline = flow_start + trial.timeout;
  drive_until_complete_or_deadline(
      rig.simulator(),
      [&]() -> const transport::SenderBase* { return rig.started(watched); },
      deadline);

  TrialResult result;
  rig.finish(result);
  result.path_rtt = trial.path.rtt;
  if (const transport::SenderBase* sender = rig.started(watched)) {
    result.record = sender->record();
    result.finished = sender->complete();
    result.saw_loss = flow_drops > 0 || result.record.normal_retx > 0 ||
                      result.record.timeouts > 0;
    if (!result.finished) censor_record_at(result.record, deadline);
  }
  return result;
}

TrialResult PlanetLabEnv::run_one(schemes::Scheme scheme, const PathSample& path,
                                  std::uint64_t trial_seed,
                                  telemetry::Hub* telemetry) const {
  AccessTrial trial;
  trial.path.rtt = path.rtt;
  trial.path.downlink_rate = path.bottleneck;
  trial.path.uplink_rate = std::max(path.bottleneck * 0.25,
                                    sim::DataRate::megabits_per_second(2.0));
  trial.path.downlink_buffer_bytes = path.buffer_bytes;
  trial.path.downlink_loss_rate = path.random_loss;
  trial.cross_traffic = path.cross_traffic;
  trial.flow_bytes = config_.flow_bytes;
  trial.sender_config = config_.sender_config;
  trial.timeout = config_.per_trial_timeout;
  return run_access_trial(trial, scheme, trial_seed, telemetry);
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
