// The benchmark's four campaign workloads and the runs they are made of.
//
// Each workload is a batch of independent simulations ("runs": a sweep
// cell or a trial), generated from the workload seed alone and executed one
// after another through the public experiment entry points
// (exp::EmulabRunner::run, exp::PlanetLabEnv::run_one).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exp/emulab.h"
#include "exp/planetlab.h"
#include "schemes/scheme.h"
#include "sim/dispatch_profiler.h"
#include "telemetry/hub.h"

namespace perfbench {

/// One simulation of a campaign.
struct RunSpec {
  std::string label;  ///< e.g. "u=0.15/halfback"
  halfback::schemes::Scheme scheme = halfback::schemes::Scheme::tcp;
  /// Dumbbell runs: the runner config and workload parts, as
  /// exp::EmulabRunner receives them.
  halfback::exp::EmulabRunner::Config runner;
  std::vector<halfback::exp::WorkloadPart> parts;
  /// Wide-area trials: the path and trial seed passed to run_one.
  bool trial = false;
  std::size_t path = 0;
  std::uint64_t trial_seed = 0;
};

struct Campaign {
  std::string workload;
  std::uint64_t seed = 0;
  std::vector<RunSpec> runs;
  /// The path ensemble (wan_trials only).
  std::unique_ptr<halfback::exp::PlanetLabEnv> env;
  halfback::exp::PlanetLabConfig planetlab;
  /// Runs executed untimed during set-up (warm-up).
  std::vector<std::size_t> warmup;
  /// Wall time spent in workload generation (make_schedule or the
  /// PlanetLabEnv constructor), in ms.
  double gen_ms = 0.0;
};

/// Build `workload`'s campaign from `seed`. Throws std::invalid_argument
/// for an unknown workload.
Campaign make_campaign(const std::string& workload, std::uint64_t seed);

/// What one run produced.
struct RunOutcome {
  double wall_ms = 0.0;
  bool threw = false;
  std::string error;
  bool budget_tripped = false;
  std::uint64_t trace_hash = 0;
  std::uint64_t audit_violations = 0;
  std::size_t measured_flows = 0;  ///< finished or censored, cross/background excluded
  double fct_sum_ms = 0.0;         ///< over measured flows, censored at their elapsed time
  /// Dumbbell runs only (RunResult fields); zero for trials.
  std::uint64_t events = 0;
  std::uint64_t accepted = 0;
  std::uint64_t bottleneck_drops = 0;
  std::uint64_t fault_packets_seen = 0;
  std::uint64_t fault_drops = 0;

  bool failed() const { return threw || budget_tripped || audit_violations != 0; }
};

/// Observers handed to the runner's public seams (traced run). A trial
/// takes only the hub.
struct Observers {
  halfback::telemetry::Hub* hub = nullptr;
  halfback::sim::DispatchProfiler* profiler = nullptr;
};

/// Execute run `index` of `campaign`, timing it. Never throws: an
/// exception is reported in the outcome.
RunOutcome execute(const Campaign& campaign, std::size_t index, Observers observers = {});

}  // namespace perfbench
