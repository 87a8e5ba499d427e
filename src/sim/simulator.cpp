#include "sim/simulator.h"

#include <array>
#include <typeinfo>
#include <utility>

#include "sim/budget.h"
#include "sim/dispatch_profiler.h"
#include "telemetry/hub.h"

namespace halfback::sim {

// One dispatch loop, instantiated per combination of installed observers.
// Each observer's per-event work sits behind `if constexpr`, so an
// instantiation pays only for what is installed: with no observer the loop
// is pop, deadline compare, fire.

namespace {

/// Per-event work the dispatch loop does beyond pop-and-fire: one bit per
/// installed observer.
enum LoopFeature : unsigned {
  kHub = 1U << 0U,
  kBudget = 1U << 1U,
  kProfiler = 1U << 2U,
};
constexpr unsigned kLoopCount = 1U << 3U;

}  // namespace

void Simulator::run_until(Time deadline) {
  dispatch((telemetry_ != nullptr ? kHub : 0U) |
               (budget_ != nullptr ? kBudget : 0U) |
               (profiler_ != nullptr ? kProfiler : 0U),
           deadline);
}

void Simulator::dispatch(unsigned observers, Time deadline) {
  using Loop = void (Simulator::*)(Time);
  static constexpr auto kLoops =
      []<unsigned... kMasks>(std::integer_sequence<unsigned, kMasks...>) {
        return std::array<Loop, sizeof...(kMasks)>{
            &Simulator::dispatch<kMasks>...};
      }(std::make_integer_sequence<unsigned, kLoopCount>{});
  (this->*kLoops[observers])(deadline);
}

template <unsigned kMask>
void Simulator::dispatch(Time deadline) {
  stopped_ = false;
  if constexpr ((kMask & kBudget) != 0) {
    // A tripped budget is sticky: once a run aborted, further driving (e.g.
    // the next poll slice of a deadline-censored loop) stays aborted.
    if (budget_->tripped()) {
      stopped_ = true;
      return;
    }
  }
  // The hub's count and heap peak are tracked locally and flushed once at
  // slice exit: an integer compare per event instead of two instrument taps.
  std::size_t heap_peak = 0;
  const std::uint64_t executed_before = events_executed_;
  while (!stopped_ && !queue_.empty()) {
    // next_time() is out-of-line (it carries an empty-queue check); read it
    // once per iteration.
    const Time next = queue_.next_time();
    if (next > deadline) break;
    if constexpr ((kMask & kBudget) != 0) {
      const BudgetTrip trip = budget_->before_dispatch(next, events_executed_);
      if (trip != BudgetTrip::none) {
        budget_->record_trip(trip, *this);
        stopped_ = true;
        break;
      }
    }
    if constexpr ((kMask & kHub) != 0) {
      if (queue_.size() > heap_peak) heap_peak = queue_.size();
    }
    now_ = next;  // clock is correct inside the callback
    if constexpr ((kMask & kProfiler) != 0) {
      // The dynamic type must be read before run_next(): fire() may
      // destroy or reschedule the event object. Cycle reads bracket
      // fire() only on sampling ticks; counting is every dispatch.
      const std::type_info& type = typeid(queue_.peek_next());
      if (profiler_->should_sample()) {
        const std::uint64_t entered = read_cycle_counter();
        queue_.run_next();
        profiler_->note_dispatch(type, read_cycle_counter() - entered);
      } else {
        queue_.run_next();
        profiler_->note_dispatch(type, 0);
      }
    } else {
      queue_.run_next();
    }
    ++events_executed_;
  }
  if constexpr ((kMask & kHub) != 0) {
    // Flushed on every exit, including budget trips mid-slice: the metrics
    // must account for the events that did run before the abort.
    telemetry_->on_run_slice_done(events_executed_ - executed_before,
                                  heap_peak);
  }
  // An infinite deadline (run()) must not drag the clock to the sentinel.
  if (!stopped_ && !deadline.is_infinite() && now_ < deadline) {
    now_ = deadline;
  }
}

}  // namespace halfback::sim
