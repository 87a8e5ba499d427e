#include "exp/homenet.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "audit/invariant_auditor.h"
#include "exp/censor.h"
#include "exp/parallel.h"
#include "schemes/factory.h"
#include "transport/agent.h"

namespace halfback::exp {

namespace {
// Parameters follow the provider descriptions in §4.2.2: AT&T DSL ~6 Mbps
// behind a home wireless router (bloated DSL buffer, wireless loss),
// Comcast 25 Mbps wired, ConnectivityU shared-building WiFi, and
// ConnectivityU wired.
constexpr std::array<HomeNetProfile, 4> kProfiles{{
    {"comcast-wired", sim::DataRate::megabits_per_second(25),
     sim::DataRate::megabits_per_second(5), 0.0, 192'000},
    {"connectivityu-wired", sim::DataRate::megabits_per_second(100),
     sim::DataRate::megabits_per_second(100), 0.0, 128'000},
    {"connectivityu-wifi", sim::DataRate::megabits_per_second(18),
     sim::DataRate::megabits_per_second(8), 0.008, 64'000},
    {"att-dsl-wifi", sim::DataRate::megabits_per_second(6),
     sim::DataRate::kilobits_per_second(700), 0.01, 384'000},
}};
}  // namespace

std::span<const HomeNetProfile> home_profiles() { return kProfiles; }

HomeNetEnv::HomeNetEnv(HomeNetConfig config) : config_{config} {
  sim::Random rng{config_.seed};
  server_rtts_.reserve(static_cast<std::size_t>(config_.server_count));
  for (int i = 0; i < config_.server_count; ++i) {
    // Sampled in ms, converted to sim::Time at the boundary.
    server_rtts_.push_back(sim::Time::milliseconds(
        std::clamp(rng.lognormal(std::log(60.0), 1.0), 2.0, 400.0)));
  }
}

std::vector<TrialResult> HomeNetEnv::run(schemes::Scheme scheme,
                                         const HomeNetProfile& profile) const {
  std::vector<TrialResult> results(server_rtts_.size());
  parallel_for(
      server_rtts_.size(),
      [&](std::size_t i) {
        sim::Simulator simulator{config_.seed * 131 + i};
        net::Network network{simulator};
        // One auditor per trial, as in PlanetLabEnv::run_one: each trial
        // carries its own invariant checker and determinism hash.
        audit::InvariantAuditor auditor;
        network.install_auditor(auditor);
        net::AccessPathConfig apc;
        apc.rtt = server_rtts_[i];
        apc.downlink_rate = profile.downlink;
        apc.uplink_rate = profile.uplink;
        apc.downlink_buffer_bytes = profile.buffer_bytes;
        apc.downlink_loss_rate = profile.loss_rate;
        net::AccessPath ap = net::build_access_path(network, apc);

        transport::TransportAgent server_agent{simulator, network, ap.server};
        transport::TransportAgent client_agent{simulator, network, ap.client};

        schemes::SchemeContext context;
        context.sender_config = config_.sender_config;
        auto sender = schemes::make_sender(scheme, context, simulator,
                                           network.node(ap.server), ap.client,
                                           /*flow=*/1, config_.flow_bytes);
        transport::SenderBase& ref = server_agent.start_flow(std::move(sender));
        // Same deadline-censoring semantics as PlanetLabEnv (exp/censor.h):
        // stop as soon as the flow completes, and charge an unfinished flow
        // the full timeout.
        drive_until_complete_or_deadline(
            simulator, [&]() -> const transport::SenderBase* { return &ref; },
            config_.per_trial_timeout);

        TrialResult r;
        r.path_rtt = server_rtts_[i];
        r.record = ref.record();
        r.finished = ref.complete();
        if (!r.finished) censor_record_at(r.record, config_.per_trial_timeout);
        r.saw_loss = r.record.normal_retx > 0 || r.record.timeouts > 0;
        auditor.finalize(simulator.queue().empty());
        r.trace_hash = auditor.trace_hash();
        r.audit_violations = auditor.total_violations();
        results[i] = r;
      },
      config_.threads);
  return results;
}

}  // namespace halfback::exp
