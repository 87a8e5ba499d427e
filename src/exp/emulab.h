// The Emulab experiment runner: replays flow schedules over the Fig. 4
// dumbbell and collects per-flow results. Shared by Figs. 10-17.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "exp/rig.h"
#include "net/topology.h"
#include "netfault/fault_config.h"
#include "netfault/fault_injector.h"
#include "sim/dispatch_profiler.h"
#include "stats/summary.h"
#include "telemetry/manifest.h"
#include "workload/flow_schedule.h"

namespace halfback::exp {

/// Role a flow plays in a mixed workload.
enum class FlowRole : std::uint8_t { primary, competing, background };

/// One flow's outcome.
struct FlowResult {
  transport::FlowRecord record;
  FlowRole role = FlowRole::primary;
  bool finished = false;
  sim::Time censored_fct;  ///< elapsed time at sim end for unfinished flows
};

/// What a sweep cell or a per-run table reports about one role's flows.
/// All zero for a role with no flows.
struct RoleStats {
  std::size_t unfinished = 0;
  /// FCT over the role's flows, unfinished ones at their censored time.
  double mean_fct_ms = 0.0;    // lint: unit-ok(statistics edge: report column in ms)
  double median_fct_ms = 0.0;  // lint: unit-ok(statistics edge: report column in ms)
  double mean_normal_retx = 0.0;
  double mean_proactive_retx = 0.0;
  double mean_timeouts = 0.0;
};

/// Aggregated outcome of one run. After a budget trip (RunRecord::
/// budget_report) the flow results are the partial state at the trip.
struct RunResult : RunRecord {
  std::vector<FlowResult> flows;
  std::uint64_t bottleneck_drops_total = 0;
  double bottleneck_utilization = 0.0;

  /// Transport-boundary rejection counters summed over every host agent.
  /// The rejected fields stay zero unless the run injects faults.
  transport::DeliveryStats delivery;
  /// Per-cause fault attribution summed over the installed injectors
  /// (all-zero when Config::faults is empty and no injector was installed).
  netfault::InjectorStats faults;

  /// Mean FCT in ms over finished flows of `role`; unfinished flows are
  /// included at their censored (elapsed) time so collapse shows up
  /// instead of being silently excluded.
  double mean_fct_ms(FlowRole role) const;
  stats::Summary fct_ms(FlowRole role, bool include_censored = true) const;
  RoleStats role_stats(FlowRole role) const;
  std::size_t finished_count(FlowRole role) const;
  std::size_t unfinished_count(FlowRole role) const;
};

/// One scheduled workload component: a schedule of flows, all using one
/// scheme, tagged with a role.
struct WorkloadPart {
  schemes::Scheme scheme;
  std::vector<workload::FlowArrival> schedule;
  FlowRole role = FlowRole::primary;
  /// Overrides the runner's sender config for this part's flows — e.g.
  /// bulk background flows advertise a large receive window so they can
  /// fill big router buffers (the §4.2.3 bufferbloat experiments), while
  /// short flows keep the 141 KB Windows-XP default.
  std::optional<transport::SenderConfig> sender_config;
};

/// Builds a fresh dumbbell simulation and replays workload parts on it.
///
/// Flows are assigned to sender/receiver host pairs round-robin; every run
/// is deterministic given the seed and schedules.
class EmulabRunner {
 public:
  struct Config {
    net::DumbbellConfig dumbbell;
    std::uint64_t seed = 1;
    transport::SenderConfig sender_config;
    schemes::HalfbackConfig halfback_config;
    /// Extra simulated time after the last arrival before declaring
    /// unfinished flows censored.
    sim::Time drain = sim::Time::seconds(30);
    /// Fault injection on the bottleneck (both directions). When any() is
    /// false — the default — no injector is installed at all and the run
    /// is bit-identical to one from before the netfault layer existed.
    /// Each direction gets an independent injector whose RNG derives from
    /// `seed` (never from the simulator's live stream, which would perturb
    /// the fault-free baseline). See docs/fault-injection.md.
    netfault::FaultConfig faults;
    /// Deterministic run budget (sim/budget.h). Default-constructed —
    /// nothing enabled — leaves the dispatch loop on the unbudgeted seed
    /// path, bit-identical to runs from before budgets existed. With any
    /// limit set, a trip aborts the run and RunResult::budget_report says
    /// why.
    sim::RunBudget budget;
    /// Optional telemetry hub (owned by the caller, one per run). When set,
    /// the run installs it on the simulator, links, and every flow, and
    /// snapshots network gauges at the end. Purely observational: trace
    /// hashes are identical with or without it (docs/telemetry.md).
    telemetry::Hub* telemetry = nullptr;

    /// Optional in-sim cost profiler (owned by the caller). When set, the
    /// simulator runs its profiled dispatch loop and attributes a
    /// cycle count to every event type; manifest() exports the table.
    /// Event-for-event identical to an unprofiled run — dispatch counts
    /// are deterministic, only the cycle columns vary. Not part of the
    /// config fingerprint.
    sim::DispatchProfiler* profiler = nullptr;
  };

  explicit EmulabRunner(Config config) : config_{std::move(config)} {}

  /// Run all parts on one fresh network.
  RunResult run(const std::vector<WorkloadPart>& parts);

  /// Provenance manifest for a finished run (seed, config digest, trace
  /// hash, end-of-run counters). `experiment` names the caller's context,
  /// e.g. "emulab" or "chaos:rc-2". Wall time is left zero for the caller
  /// to stamp.
  telemetry::RunManifest manifest(const RunResult& result,
                                  std::string experiment) const;

 private:
  Config config_;
};

}  // namespace halfback::exp
