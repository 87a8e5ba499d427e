#include "exp/homenet.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "exp/parallel.h"
#include "sim/random.h"

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
        AccessTrial trial;
        trial.path.rtt = server_rtts_[i];
        trial.path.downlink_rate = profile.downlink;
        trial.path.uplink_rate = profile.uplink;
        trial.path.downlink_buffer_bytes = profile.buffer_bytes;
        trial.path.downlink_loss_rate = profile.loss_rate;
        trial.flow_bytes = config_.flow_bytes;
        trial.sender_config = config_.sender_config;
        trial.timeout = config_.per_trial_timeout;
        results[i] = run_access_trial(trial, scheme, config_.seed * 131 + i);
      },
      config_.threads);
  return results;
}

}  // namespace halfback::exp
