// Synthetic wide-area path ensemble standing in for the paper's PlanetLab
// campaign (§4.2.1): 2.6 K sender/receiver pairs across five continents,
// RTTs 0.2-400 ms, 100 KB flows.
//
// Substitution (see DESIGN.md): each pair becomes an AccessPath topology
// whose RTT, bottleneck bandwidth, buffer depth and background traffic are
// drawn from documented distributions. What the PlanetLab figures measure
// is how each scheme behaves across heterogeneous paths — in particular
// that the aggressive paced start overruns the slowest ~quarter of paths —
// and the ensemble is calibrated so that roughly 25% of trials see loss,
// matching §4.2.1.
#pragma once

#include <cstdint>
#include <vector>

#include "exp/rig.h"
#include "net/topology.h"
#include "schemes/scheme.h"
#include "sim/bytes.h"
#include "transport/sender.h"

namespace halfback::exp {

/// One sampled wide-area path.
struct PathSample {
  sim::Time rtt;
  sim::DataRate bottleneck;
  sim::Bytes buffer_bytes;
  double random_loss = 0.0;       ///< residual wireless/overload loss
  bool cross_traffic = false;     ///< a competing TCP flow shares the path
};

/// Outcome of one (path, scheme) trial.
struct TrialResult : RunRecord {
  transport::FlowRecord record;
  sim::Time path_rtt;
  bool finished = false;
  /// Any retransmission, timeout, or downlink queue drop of the flow.
  bool saw_loss = false;
};

/// One access-path trial: a `flow_bytes` flow from the server to the
/// client of `path`, run until it completes or `timeout` after it starts.
/// With `cross_traffic`, a long TCP flow on the same path gets a 2 s head
/// start first. PlanetLabEnv and HomeNetEnv both run their trials here.
struct AccessTrial {
  net::AccessPathConfig path;
  bool cross_traffic = false;
  sim::Bytes flow_bytes;
  transport::SenderConfig sender_config;
  sim::Time timeout;
};

/// Run `trial` with `scheme` on a fresh simulator seeded with `seed`. An
/// unfinished flow is censored at its deadline (exp/censor.h). When
/// `telemetry` is non-null the trial installs it on the links and flows —
/// purely observational, the trace hash is unchanged.
TrialResult run_access_trial(const AccessTrial& trial, schemes::Scheme scheme,
                             std::uint64_t seed,
                             telemetry::Hub* telemetry = nullptr);

struct PlanetLabConfig {
  int pair_count = 2600;
  sim::Bytes flow_bytes = 100'000;
  std::uint64_t seed = 42;
  transport::SenderConfig sender_config;
  sim::Time per_trial_timeout = sim::Time::seconds(120);
  unsigned threads = 0;
};

/// The ensemble: paths are generated once from the seed, then every scheme
/// runs over the *same* paths (fresh simulator per trial).
class PlanetLabEnv {
 public:
  explicit PlanetLabEnv(PlanetLabConfig config);

  const std::vector<PathSample>& paths() const { return paths_; }

  /// Run one scheme across all paths.
  std::vector<TrialResult> run(schemes::Scheme scheme) const;

  /// Run a single trial (exposed for tests). When `telemetry` is non-null
  /// the trial installs it on the simulator, links, and flow — purely
  /// observational, the trace hash is unchanged. One hub covers one trial;
  /// run() shards trials across threads, so a shared hub would race.
  TrialResult run_one(schemes::Scheme scheme, const PathSample& path,
                      std::uint64_t trial_seed,
                      telemetry::Hub* telemetry = nullptr) const;

 private:
  PlanetLabConfig config_;
  std::vector<PathSample> paths_;
};

}  // namespace halfback::exp
