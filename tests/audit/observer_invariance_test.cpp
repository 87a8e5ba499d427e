// Observer invariance over every dispatch-loop instantiation.
//
// Simulator::run_until() (and run(), which is run_until() with an infinite
// deadline) picks one instantiation of the dispatch loop per combination of
// installed observers (telemetry hub, budget enforcer, dispatch profiler).
// Observers only watch, and slicing a run into run_until() steps only
// changes where the loop pauses, so one seeded, audited dumbbell run must
// give the same trace hash and the same event count under every observer
// set and every way of driving it.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/budget.h"
#include "sim/dispatch_profiler.h"
#include "support/dumbbell_fixture.h"
#include "telemetry/hub.h"

namespace halfback::audit {
namespace {

using sim::Time;

enum Observer : unsigned {
  kHub = 1U << 0U,
  kBudget = 1U << 1U,
  kProfiler = 1U << 2U,
};

/// How the run is driven to the end.
enum class Drive {
  run,     ///< one run()
  until,   ///< one run_until() to the horizon
  sliced,  ///< kSlices equal run_until() slices up to the horizon
};

constexpr Time kHorizon = Time::seconds(10);
constexpr int kSlices = 40;

struct Case {
  unsigned observers = 0;
  Drive drive = Drive::run;
};

struct Outcome {
  std::uint64_t trace_hash = 0;
  std::uint64_t events = 0;
};

Outcome run_case(const Case& c) {
  net::DumbbellConfig config;
  config.sender_count = 3;
  config.receiver_count = 3;
  config.bottleneck_buffer_bytes = 40'000;  // tight: drops and recoveries
  testing::DumbbellFixture fx{config, /*seed=*/5};

  telemetry::Hub hub;
  sim::DispatchProfiler profiler;
  sim::RunBudget budget;
  if ((c.observers & kBudget) != 0) {
    budget = sim::RunBudget{
        .max_events = 10'000'000,
        .storm_window = 100,
        .storm_events_per_sim_second = 1e9,
    };
  }
  fx.rig.install((c.observers & kHub) != 0 ? &hub : nullptr,
                 (c.observers & kProfiler) != 0 ? &profiler : nullptr, budget);

  const std::vector<schemes::Scheme> mix{
      schemes::Scheme::halfback,  schemes::Scheme::tcp,
      schemes::Scheme::jumpstart, schemes::Scheme::halfback,
      schemes::Scheme::pcp,       schemes::Scheme::tcp};
  for (std::size_t i = 0; i < mix.size(); ++i) {
    fx.sim.schedule_at(Time::milliseconds(30.0 * static_cast<double>(i)),
                       [&fx, scheme = mix[i], i] {
                         fx.start(scheme, i == 1 ? 400'000 : 100'000, i);
                       });
  }

  switch (c.drive) {
    case Drive::run:
      fx.sim.run();
      break;
    case Drive::until:
      fx.sim.run_until(kHorizon);
      break;
    case Drive::sliced:
      for (int k = 1; k <= kSlices; ++k) {
        fx.sim.run_until(kHorizon * (static_cast<double>(k) / kSlices));
      }
      break;
  }

  // Every flow finished and the queue drained inside the horizon, so the
  // three drives cover the same events.
  EXPECT_TRUE(fx.sim.queue().empty());
  for (std::size_t pair = 0; pair < fx.dumbbell.senders.size(); ++pair) {
    EXPECT_EQ(fx.sender_agent(pair).active_sender_count(), 0u);
  }
  const exp::RunRecord& run = fx.finish();
  EXPECT_EQ(run.audit_violations, 0u);
  if ((c.observers & kHub) != 0) {
    EXPECT_EQ(hub.sim().events_dispatched->value(), fx.sim.events_executed());
  }
  EXPECT_EQ(run.budget_report.tripped, sim::BudgetTrip::none);
  if ((c.observers & kProfiler) != 0) {
    EXPECT_EQ(profiler.total_dispatches(), fx.sim.events_executed());
  }
  return {run.trace_hash, run.events_executed};
}

class ObserverInvariance : public ::testing::TestWithParam<Case> {};

TEST_P(ObserverInvariance, SameTraceHashAndEventCount) {
  static const Outcome reference = run_case(Case{});
  ASSERT_NE(reference.trace_hash, 0u);
  const Outcome outcome = run_case(GetParam());
  EXPECT_EQ(outcome.trace_hash, reference.trace_hash);
  EXPECT_EQ(outcome.events, reference.events);
}

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  for (unsigned observers = 0; observers < 8; ++observers) {
    for (Drive drive : {Drive::run, Drive::until, Drive::sliced}) {
      cases.push_back(Case{observers, drive});
    }
  }
  return cases;
}

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  std::string name;
  if ((info.param.observers & kHub) != 0) name += "hub_";
  if ((info.param.observers & kBudget) != 0) name += "budget_";
  if ((info.param.observers & kProfiler) != 0) name += "profiler_";
  if (name.empty()) name = "none_";
  switch (info.param.drive) {
    case Drive::run: return name + "run";
    case Drive::until: return name + "until";
    case Drive::sliced: return name + "sliced";
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(EveryLoop, ObserverInvariance,
                         ::testing::ValuesIn(all_cases()), case_name);

}  // namespace
}  // namespace halfback::audit
