// Run budgets: deterministic limits a simulation run must stay inside, and
// the structured report produced when one trips.
//
// The rc3×adversarial×seed-42 storm (ROADMAP, PR 8) showed that a single
// pathological cell can balloon to tens of millions of events and crawl for
// minutes before anyone notices. A RunBudget turns that failure mode into a
// fast, structured abort: the simulator checks the budget before each
// dispatch and, on a trip, stops with a BudgetReport naming which limit
// tripped, how far the run got, and what event classes dominate the pending
// queue — enough to triage the storm from the report alone.
//
// Determinism contract: the event-count and storm checks are pure
// functions of the event stream, so a budgeted run either completes
// bit-identically to the unbudgeted run or aborts at the same event on
// every replay.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/annotations.h"
#include "sim/time.h"

namespace halfback::sim {

class Simulator;

/// Limits for one run. A zero field disables that check; a
/// default-constructed RunBudget enforces nothing. A run's sim-time end is
/// run_until()'s deadline, not a budget.
struct RunBudget {
  /// Abort after this many executed events (0 = unlimited).
  std::uint64_t max_events = 0;

  /// Storm detector window, in events (0 = detector off). Each time the
  /// window fills, the detector compares events dispatched against sim
  /// time elapsed; a run that burns `storm_window` events while the sim
  /// clock advances less than storm_window / storm_events_per_sim_second
  /// is livelocked or storming and is aborted.
  std::uint64_t storm_window = 0;

  /// Dispatch-rate threshold for the storm detector, in events per
  /// simulated second. Only meaningful with storm_window > 0.
  double storm_events_per_sim_second = 0.0;

  /// True if any check is enabled.
  bool any() const {
    return max_events > 0 || storm_window > 0;
  }
};

/// Which limit ended the run.
enum class BudgetTrip : std::uint8_t {
  none = 0,
  event_count,  ///< RunBudget::max_events exhausted
  storm,        ///< dispatch rate over RunBudget::storm_events_per_sim_second
};

std::string_view to_string(BudgetTrip trip);

/// One pending-event class in the post-trip census: demangled event type
/// name plus how many instances sit in the queue.
struct PendingClassCount {
  std::string type_name;
  std::uint64_t count = 0;
};

/// Structured account of a tripped budget, filled at the abort point.
struct BudgetReport {
  BudgetTrip tripped = BudgetTrip::none;
  std::uint64_t events_executed = 0;  ///< dispatched before the trip
  Time sim_now;                       ///< sim clock at the trip
  std::uint64_t pending_events = 0;   ///< queue depth at the trip

  /// Storm-detector state at the trip (meaningful for BudgetTrip::storm):
  /// sim time spanned by the last full window and the dispatch rate over it.
  Time window_span;
  double window_events_per_sim_second = 0.0;

  /// Pending-event census, largest class first (ties by name): the "top
  /// timer classes" a storm triage starts from.
  std::vector<PendingClassCount> top_pending;

  /// One human-readable line, e.g. for a quarantine manifest detail field.
  std::string summary() const HB_EFFECTS(alloc);
};

/// Budget checks for one Simulator run. Install with
/// Simulator::set_budget(); the simulator consults before_dispatch() ahead
/// of every event and calls record_trip() when a check fires.
///
/// The per-event path is the inline checks in before_dispatch();
/// everything that allocates (the census, the report) runs only at the
/// abort point.
class BudgetEnforcer {
 public:
  explicit BudgetEnforcer(RunBudget budget) : budget_{budget} {}

  const RunBudget& budget() const { return budget_; }

  /// Check the budget against the event about to run. `next` is its
  /// deadline, `executed` the number of events dispatched so far. Returns
  /// the first limit the dispatch would break, or BudgetTrip::none.
  BudgetTrip before_dispatch(Time next, std::uint64_t executed) {
    if (budget_.max_events > 0 && executed >= budget_.max_events) {
      return BudgetTrip::event_count;
    }
    if (budget_.storm_window > 0) {
      if (window_events_ == 0) window_start_ = next;
      if (++window_events_ >= budget_.storm_window) {
        const Time span = next - window_start_;
        window_events_ = 0;
        const double span_seconds = span.to_seconds();
        const double events = static_cast<double>(budget_.storm_window);
        if (span_seconds <= 0.0 ||
            events / span_seconds > budget_.storm_events_per_sim_second) {
          last_window_span_ = span;
          return BudgetTrip::storm;
        }
      }
    }
    return BudgetTrip::none;
  }

  /// Record the abort: fill the report from the simulator's state,
  /// including the pending-event census. Called once, at the trip. The
  /// census builds strings and a map, so the contract is alloc + throw
  /// (bad_alloc from the containers); it never runs on the per-event path.
  void record_trip(BudgetTrip trip, const Simulator& simulator)
      HB_EFFECTS(alloc, throw);

  bool tripped() const { return report_.tripped != BudgetTrip::none; }
  const BudgetReport& report() const { return report_; }

 private:
  RunBudget budget_;
  BudgetReport report_;
  std::uint64_t window_events_ = 0;
  Time window_start_;
  Time last_window_span_;
};

}  // namespace halfback::sim
