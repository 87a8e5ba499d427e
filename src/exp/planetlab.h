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

#include "net/topology.h"
#include "schemes/scheme.h"
#include "sim/bytes.h"
#include "telemetry/manifest.h"
#include "transport/sender.h"

namespace halfback::telemetry {
class Hub;
}  // namespace halfback::telemetry

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
struct TrialResult {
  transport::FlowRecord record;
  sim::Time path_rtt;
  bool finished = false;
  bool saw_loss = false;  ///< any retransmission or drop observed

  /// From the trial's invariant auditor: an order-sensitive hash of the
  /// run trace — identical seeds must reproduce it exactly — and the
  /// invariant-violation count (0 = clean).
  std::uint64_t trace_hash = 0;
  std::uint64_t audit_violations = 0;
};

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

  /// Provenance manifest for one finished trial. `telemetry` (if given)
  /// supplies the end-of-run event count; wall time is left zero for the
  /// caller to stamp.
  telemetry::RunManifest manifest(const TrialResult& result,
                                  schemes::Scheme scheme,
                                  std::uint64_t trial_seed,
                                  const telemetry::Hub* telemetry = nullptr) const;

 private:
  PlanetLabConfig config_;
  std::vector<PathSample> paths_;
};

}  // namespace halfback::exp
