// The simulation driver: owns virtual time and the event queue.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "audit/auditor.h"
#include "sim/annotations.h"
#include "sim/event_queue.h"
#include "sim/random.h"
#include "sim/time.h"

namespace halfback::telemetry {
class Hub;
}

namespace halfback::sim {

class BudgetEnforcer;
class DispatchProfiler;

/// A single simulation run.
///
/// Components hold a Simulator& and use it to read the clock, schedule
/// future work, and draw randomness. The simulator is not thread-safe; a
/// run is strictly single-threaded (parallelism, where wanted, is across
/// independent Simulator instances).
class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1) : random_{seed} {}

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time.
  Time now() const HB_EFFECTS() { return now_; }

  /// Schedule `fn` to run after `delay` (>= 0) from now. This is the
  /// std::function shim over the intrusive event core — fine for tests,
  /// examples, and one-shot setup; hot-path components embed an Event or
  /// sim::Timer and use the schedule_event family below instead.
  EventHandle schedule(Time delay, std::function<void()> fn)
      HB_EFFECTS(alloc, throw) {
    HALFBACK_AUDIT_HOOK(auditor_, on_event_scheduled(now_, now_ + delay));
    return queue_.schedule(now_ + delay, std::move(fn));
  }

  /// Schedule `fn` at absolute time `at` (>= now).
  EventHandle schedule_at(Time at, std::function<void()> fn)
      HB_EFFECTS(alloc, throw) {
    HALFBACK_AUDIT_HOOK(auditor_, on_event_scheduled(now_, at));
    return queue_.schedule(at, std::move(fn));
  }

  /// Schedule an intrusive event after `delay` (>= 0) from now. The event
  /// must not already be queued; the caller keeps ownership and must keep
  /// it alive until it fires or is cancelled.
  void schedule_event(Time delay, Event& event) HB_EFFECTS(alloc, throw) {
    HALFBACK_AUDIT_HOOK(auditor_, on_event_scheduled(now_, now_ + delay));
    queue_.schedule_event(event, now_ + delay);
  }

  /// Move an intrusive event to `delay` from now, scheduling it if idle.
  /// Equivalent to cancel + schedule (fresh FIFO tie-break) without
  /// touching the heap twice.
  void reschedule_event(Time delay, Event& event) HB_EFFECTS(alloc, throw) {
    HALFBACK_AUDIT_HOOK(auditor_, on_event_scheduled(now_, now_ + delay));
    queue_.reschedule_event(event, now_ + delay);
  }

  /// Move an intrusive event to absolute time `at`, scheduling it if idle.
  void reschedule_event_at(Time at, Event& event) HB_EFFECTS(alloc, throw) {
    HALFBACK_AUDIT_HOOK(auditor_, on_event_scheduled(now_, at));
    queue_.reschedule_event(event, at);
  }

  /// Remove an intrusive event if queued; no-op otherwise.
  void cancel_event(Event& event) HB_EFFECTS() { queue_.cancel_event(event); }

  /// Run until the event queue drains or stop() is called.
  void run() HB_EFFECTS(alloc, throw, rng) { run_until(Time::infinity()); }

  /// Run events up to and including time `deadline`; afterwards
  /// now() == deadline unless the queue drained earlier, stop() fired, or
  /// the deadline is infinite.
  void run_until(Time deadline) HB_EFFECTS(alloc, throw, rng);

  /// Make run()/run_until() return after the current event completes.
  void stop() HB_EFFECTS() { stopped_ = true; }

  bool stopped() const { return stopped_; }

  Random& random() { return random_; }
  EventQueue& queue() { return queue_; }
  const EventQueue& queue() const { return queue_; }

  /// Number of events executed so far (for diagnostics and benchmarks).
  std::uint64_t events_executed() const { return events_executed_; }

  /// Install an audit observer for this run (nullptr detaches). The pointer
  /// is shared with the event queue; network components reach it through
  /// their Simulator&. Owned by the caller. Install before any traffic
  /// starts so the auditor's shadow accounting sees every transition.
  void set_auditor(audit::Auditor* auditor) {
    auditor_ = auditor;
    queue_.set_auditor(auditor);
  }
  audit::Auditor* auditor() const { return auditor_; }

  /// Install a telemetry hub for this run (nullptr detaches). Owned by the
  /// caller; telemetry::Hub::instrument_network calls this, and senders
  /// started afterwards take their flow track from telemetry(). Purely
  /// observational: the hub counts dispatches and heap depth but never
  /// schedules or draws randomness, so installing one does not change the
  /// run (trace hashes stay bit-identical).
  void set_telemetry(telemetry::Hub* hub) { telemetry_ = hub; }
  telemetry::Hub* telemetry() const { return telemetry_; }

  /// Install a budget enforcer for this run (nullptr detaches). Owned by
  /// the caller. With an enforcer installed, run()/run_until() check the
  /// budget before every dispatch and stop early — recording a
  /// BudgetReport on the enforcer — when a limit trips; without one the
  /// dispatch loop carries no budget check at all.
  void set_budget(BudgetEnforcer* budget) { budget_ = budget; }
  BudgetEnforcer* budget() const { return budget_; }

  /// Install a dispatch profiler for this run (nullptr detaches). Owned by
  /// the caller. The profiler only observes (per-type counts and cycles),
  /// so trace hashes stay bit-identical; without one the dispatch loop
  /// carries no profiler tap at all.
  void set_profiler(DispatchProfiler* profiler) { profiler_ = profiler; }
  DispatchProfiler* profiler() const { return profiler_; }

 private:
  /// Run the loop instantiation for the mask `observers` of installed
  /// observers (see simulator.cpp); run_until() only computes the mask.
  void dispatch(unsigned observers, Time deadline)
      HB_EFFECTS(alloc, throw, rng);

  /// The dispatch loop. Each observer's per-event work compiles in only
  /// for the instantiations whose `kMask` carries its bit.
  template <unsigned kMask>
  void dispatch(Time deadline) HB_EFFECTS(alloc, throw, rng);

  Time now_ = Time::zero();
  EventQueue queue_;
  Random random_;
  bool stopped_ = false;
  std::uint64_t events_executed_ = 0;
  audit::Auditor* auditor_ = nullptr;
  telemetry::Hub* telemetry_ = nullptr;
  BudgetEnforcer* budget_ = nullptr;
  DispatchProfiler* profiler_ = nullptr;
};

}  // namespace halfback::sim
