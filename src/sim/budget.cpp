#include "sim/budget.h"

#include <algorithm>
#include <map>
#include <typeinfo>
#include <utility>

#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "sim/demangle.h"

namespace halfback::sim {
namespace {

/// How many pending-event classes the report keeps. Storms are dominated
/// by one or two timer classes; eight leaves room for the long tail
/// without turning the report into a dump.
constexpr std::size_t kTopPendingClasses = 8;

}  // namespace

std::string_view to_string(BudgetTrip trip) {
  switch (trip) {
    case BudgetTrip::none: return "none";
    case BudgetTrip::event_count: return "event_count";
    case BudgetTrip::storm: return "storm";
  }
  return "?";
}

std::string BudgetReport::summary() const {
  // Times render as raw nanoseconds (rather than Time::to_string) to keep
  // this function's effect contract at exactly {alloc}: the pretty-printer
  // drags in formatting helpers whose inferred effects are wider.
  std::string out{"budget tripped: "};
  out.append(sim::to_string(tripped));
  out.append(" after ");
  out.append(std::to_string(events_executed));
  out.append(" events at t=");
  out.append(std::to_string(sim_now.ns()));
  out.append("ns");
  if (tripped == BudgetTrip::storm) {
    out.append(" (window span ");
    out.append(std::to_string(window_span.ns()));
    out.append("ns, ");
    out.append(std::to_string(
        static_cast<std::uint64_t>(window_events_per_sim_second)));
    out.append(" events/sim-s)");
  }
  out.append("; ");
  out.append(std::to_string(pending_events));
  out.append(" pending");
  const char* sep = " (top: ";
  for (const PendingClassCount& cls : top_pending) {
    out.append(sep);
    out.append(cls.type_name);
    out.append(" x");
    out.append(std::to_string(cls.count));
    sep = ", ";
  }
  if (!top_pending.empty()) out.append(")");
  return out;
}

void BudgetEnforcer::record_trip(BudgetTrip trip, const Simulator& simulator) {
  report_.tripped = trip;
  report_.events_executed = simulator.events_executed();
  report_.sim_now = simulator.now();
  report_.pending_events = simulator.queue().size();
  if (trip == BudgetTrip::storm) {
    report_.window_span = last_window_span_;
    const double span_seconds = last_window_span_.to_seconds();
    report_.window_events_per_sim_second =
        span_seconds > 0.0 ? static_cast<double>(budget_.storm_window) /
                                 span_seconds
                           : 0.0;
  }

  // Pending-event census: group by dynamic type. std::map keys the census
  // deterministically by name; the report then orders by count (largest
  // first), breaking ties by name, so the same trip always yields the
  // same top_pending bytes.
  std::map<std::string, std::uint64_t> census;
  auto tally = [&census](const Event& event) {
    census[demangled_name(typeid(event))] += 1;
  };
  simulator.queue().for_each_pending(tally);

  std::vector<std::pair<std::string, std::uint64_t>> ranked;
  ranked.reserve(census.size());
  for (auto& [name, count] : census) ranked.emplace_back(name, count);
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (ranked.size() > kTopPendingClasses) ranked.resize(kTopPendingClasses);
  report_.top_pending.clear();
  for (auto& [name, count] : ranked) {
    report_.top_pending.push_back({std::move(name), count});
  }
}

}  // namespace halfback::sim
