// Supervised experiment executor: parallel_for plus budgets, quarantine,
// and partial-result accounting.
//
// A sweep cell that storms (see sim/budget.h) should cost one budget trip
// and one quarantine-manifest record — never a hung CI job or a silently
// poisoned aggregate. supervised_for() wraps exp::parallel_for with
// exactly that policy:
//
//   * each cell runs once, on the caller's seed: a deterministic cell
//     fails the same way on a rerun, so there is nothing to retry;
//   * a failed cell (budget trip or exception) is quarantined: the sweep
//     keeps going, and the telemetry::QuarantineManifest records who
//     failed, how, and what the surviving aggregate covers
//     (attempted / completed / quarantined).
//
// The manifest is a pure function of (seed, budgets, cell set) — worker
// count never changes its bytes (tests/exp/supervisor_test.cpp pins this).
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "sim/annotations.h"
#include "sim/budget.h"
#include "telemetry/quarantine.h"

namespace halfback::exp {

/// What a cell's run reports back. Default-constructed = success.
struct AttemptOutcome {
  bool completed = true;
  std::string reason;  ///< on failure: a BudgetTrip name or "exception"
  std::string detail;  ///< human detail: report summary / what() text
  std::uint64_t events_at_trip = 0;
  sim::Time sim_time_at_trip;

  /// Failure described by a tripped budget's report.
  static AttemptOutcome from_budget(const sim::BudgetReport& report)
      HB_EFFECTS(alloc);
};

/// Outcome of a supervised sweep: the quarantine manifest doubles as the
/// completeness accounting (attempted / completed / quarantined).
struct SupervisedReport {
  telemetry::QuarantineManifest manifest;

  /// True when every cell completed.
  bool complete() const { return manifest.clean(); }
};

/// Run `attempt` once for every cell index in [0, count) on `threads`
/// workers (0 = hardware), quarantining the cells that fail. `cell_name`
/// labels quarantine records (e.g. "adversarial/rc3"); it is only called
/// for quarantined cells. Exceptions escaping `attempt` fail the cell
/// (reason "exception") rather than aborting the sweep.
SupervisedReport supervised_for(
    std::size_t count,
    const std::function<AttemptOutcome(std::size_t)>& attempt,
    unsigned threads,
    const std::function<std::string(std::size_t)>& cell_name);

}  // namespace halfback::exp
