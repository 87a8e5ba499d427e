// Chaos sweep: the fault matrix × schemes robustness experiment.
//
// Runs every scheme through a catalog of adversarial path conditions
// (bursty loss, reordering, duplication, corruption, blackouts, flapping,
// delay spikes, and an everything-at-once composite) on the Emulab
// dumbbell, and reports FCT plus recovery metrics per cell. Every cell is
// deterministic: same seed + same fault config ⇒ identical trace hash
// (chaos_sweep can re-run each cell to prove it). The paper's claim is
// that Halfback runs short flows "quickly and safely"; this is where
// "safely" gets stress-tested beyond i.i.d. loss.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "exp/emulab.h"
#include "exp/supervisor.h"
#include "netfault/fault_config.h"
#include "schemes/scheme.h"
#include "workload/flow_schedule.h"

namespace halfback::exp {

/// A named fault configuration applied to the bottleneck (both directions).
struct ChaosScenario {
  std::string name;
  netfault::FaultConfig faults;
};

/// The standard scenario catalog, "clean" first. Severities are chosen so
/// a capped-RTO transport finishes every flow within the default drain:
/// hostile enough to exercise every recovery path, not a denial of
/// service. The blackout scenario's outage (2.5 s) deliberately exceeds
/// the 1 s initial RTO, so recovery requires backed-off retransmission.
std::vector<ChaosScenario> chaos_catalog();

/// One (scenario, scheme) cell of the chaos matrix.
struct ChaosCell {
  std::string scenario;
  schemes::Scheme scheme{};
  std::size_t flows = 0;
  std::size_t unfinished = 0;          ///< 0 = every flow completed
  double mean_fct_ms = 0.0;    // lint: unit-ok(statistics edge: report column in ms)
  double median_fct_ms = 0.0;  // lint: unit-ok(statistics edge: report column in ms)
  /// FCT tail percentiles from the cell hub's transport.fct_ns histogram
  /// (exact bucket-walk interpolation; see Histogram::value_at_quantile).
  /// Zero unless ChaosSweepConfig::record_percentiles is set.
  double p50_fct_ms = 0.0;   // lint: unit-ok(statistics edge: report column in ms)
  double p99_fct_ms = 0.0;   // lint: unit-ok(statistics edge: report column in ms)
  double p999_fct_ms = 0.0;  // lint: unit-ok(statistics edge: report column in ms)
  double mean_timeouts = 0.0;
  double mean_normal_retx = 0.0;
  double mean_proactive_retx = 0.0;
  std::uint64_t fault_drops = 0;       ///< injected drops (burst+outage+flap)
  std::uint64_t corrupted_rejected = 0;
  std::uint64_t duplicate_rejected = 0;
  std::uint64_t audit_violations = 0;  ///< 0 = invariants held under chaos
  std::uint64_t trace_hash = 0;
  /// True when determinism was verified (or not requested); false means a
  /// same-seed re-run produced a different trace hash.
  bool deterministic = true;

  /// Supervision outcome (see exp/supervisor.h). A quarantined cell's
  /// statistics above are the partial state of its run at the budget trip
  /// — kept for triage, excluded from "the run finished" claims by the
  /// quarantined flag.
  std::uint64_t events_executed = 0;     ///< the run's dispatch count
  bool quarantined = false;              ///< its budget tripped or it threw
  sim::BudgetTrip trip = sim::BudgetTrip::none;  ///< the run's trip
};

/// The stock per-cell budget: a hard event ceiling plus a storm detector
/// tuned so healthy catalog cells (~10k events over ~36 sim-seconds) never
/// fill a detector window, while an event storm (tens of millions of
/// events crammed into milliseconds of sim time) trips within one window.
inline sim::RunBudget default_cell_budget() {
  sim::RunBudget budget;
  budget.max_events = 50'000'000;
  budget.storm_window = 250'000;
  budget.storm_events_per_sim_second = 5e6;
  return budget;
}

/// Every chaos cell's workload: eight flows of 100 KB (the paper's
/// short-flow size), evenly spaced (deterministic by construction): flow i
/// starts at i * 800 ms, so several flows are mid-flight when the blackout
/// scenarios strike.
std::vector<workload::FlowArrival> chaos_cell_schedule();

struct ChaosSweepConfig {
  EmulabRunner::Config runner;
  unsigned threads = 0;
  /// Re-run every cell with an identical config and require an identical
  /// trace hash (the determinism acceptance gate; doubles the work).
  bool verify_determinism = false;
  /// When non-empty, each cell runs with its own telemetry hub and writes
  /// its run artifacts (write_run_artifacts) under the stem
  /// `<dir>/<scenario>-<scheme>` (the directory must already exist). Purely
  /// observational: cell results and trace hashes are identical with or
  /// without it.
  std::string telemetry_dir;
  /// Fill each cell's p50/p99/p99.9 FCT columns from a per-cell telemetry
  /// hub's FCT histogram. Purely observational (the hub never perturbs the
  /// run), and deterministic: jobs=1 and jobs=N sweeps produce identical
  /// percentile columns.
  bool record_percentiles = false;

  /// Per-cell run budget. The default is deliberately generous — every
  /// catalog cell passes with orders of magnitude of headroom — and exists
  /// to catch the next rc3×adversarial-style storm with a structured
  /// quarantine instead of a crawling CI job. See docs/robustness.md.
  sim::RunBudget cell_budget = default_cell_budget();
};

/// Outcome of a supervised chaos sweep: the per-cell matrix plus the
/// completeness accounting / quarantine manifest.
struct ChaosSweepResult {
  std::vector<ChaosCell> cells;  ///< scenario-major, one per (scenario, scheme)
  SupervisedReport supervision;

  bool complete() const { return supervision.complete(); }
};

/// Write one run's telemetry artifacts next to each other:
/// `<stem>.metrics.jsonl`, `<stem>.trace.json` (tape events and the span
/// log, spans still open closing at `end`), `<stem>.spans.jsonl` and
/// `<stem>.manifest.json`.
void write_run_artifacts(const std::string& stem, const telemetry::Hub& hub,
                         const telemetry::RunManifest& manifest, sim::Time end);

/// Run the full matrix: one cell per (catalog scenario, scheme), under the
/// supervised executor (budgets, quarantine — exp/supervisor.h).
/// Cells are ordered scenario-major, matching chaos_catalog() order.
ChaosSweepResult chaos_sweep(const ChaosSweepConfig& config,
                             std::span<const schemes::Scheme> schemes);

}  // namespace halfback::exp
