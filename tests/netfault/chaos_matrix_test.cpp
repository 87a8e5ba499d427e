// The chaos-matrix acceptance gate: every scheme completes every flow
// across the whole fault catalog (including a blackout longer than the
// initial RTO), every cell passes the invariant audit, every cell is
// deterministic (same seed + same fault config ⇒ identical trace hash),
// and a clean cell is bit-identical to a run that never heard of netfault.
#include "exp/chaos.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "exp/emulab.h"
#include "schemes/scheme.h"
#include "telemetry/quarantine.h"

namespace halfback::exp {
namespace {

using namespace halfback::sim::literals;

ChaosSweepConfig test_config() {
  ChaosSweepConfig config;
  config.runner.seed = 1;
  config.verify_determinism = true;
  return config;
}

TEST(ChaosCatalogTest, BlackoutOutlastsTheInitialRto) {
  // The acceptance bar demands recovery from an outage the first RTO
  // cannot bridge: surviving it requires backed-off (and capped)
  // retransmission timers.
  const transport::SenderConfig defaults;
  bool found = false;
  for (const ChaosScenario& scenario : chaos_catalog()) {
    for (const netfault::TimeWindow& outage : scenario.faults.outages) {
      if (outage.duration() > defaults.rtt.min_rto) found = true;
    }
  }
  EXPECT_TRUE(found) << "no catalog outage exceeds the initial RTO";
}

TEST(ChaosMatrixTest, EverySchemeSurvivesEveryScenario) {
  const ChaosSweepResult sweep =
      chaos_sweep(test_config(), schemes::evaluation_set());
  const std::vector<ChaosCell>& cells = sweep.cells;
  ASSERT_EQ(cells.size(),
            chaos_catalog().size() * schemes::evaluation_set().size());
  EXPECT_TRUE(sweep.complete()) << "healthy matrix quarantined a cell";
  EXPECT_EQ(sweep.supervision.manifest.attempted, cells.size());
  EXPECT_EQ(sweep.supervision.manifest.completed, cells.size());
  for (const ChaosCell& cell : cells) {
    SCOPED_TRACE(cell.scenario + " / " + schemes::name(cell.scheme));
    EXPECT_EQ(cell.unfinished, 0u) << "flows failed to complete under faults";
    EXPECT_EQ(cell.flows, chaos_cell_schedule().size());
    EXPECT_TRUE(cell.deterministic)
        << "same seed + same fault config produced a different trace hash";
    EXPECT_EQ(cell.audit_violations, 0u) << "invariants broke under chaos";
    EXPECT_NE(cell.trace_hash, 0u);
  }
}

TEST(ChaosMatrixTest, PercentileColumnsAreIdenticalAtAnyWorkerCount) {
  // The --percentiles satellite contract: the per-cell FCT tail columns
  // come from a per-cell hub, so the sweep's thread count must not change
  // a single value. jobs=1 vs jobs=4 over the same matrix.
  const std::vector<schemes::Scheme> pair{schemes::Scheme::tcp,
                                          schemes::Scheme::halfback};
  ChaosSweepConfig config;
  config.runner.seed = 3;
  config.record_percentiles = true;
  config.threads = 1;
  const std::vector<ChaosCell> serial = chaos_sweep(config, pair).cells;
  config.threads = 4;
  const std::vector<ChaosCell> parallel = chaos_sweep(config, pair).cells;

  ASSERT_EQ(serial.size(), parallel.size());
  bool any_nonzero = false;
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(serial[i].scenario + " / " +
                 schemes::name(serial[i].scheme));
    // Bit-equality, not near-equality: same seed, same per-cell hub.
    EXPECT_EQ(serial[i].p50_fct_ms, parallel[i].p50_fct_ms);
    EXPECT_EQ(serial[i].p99_fct_ms, parallel[i].p99_fct_ms);
    EXPECT_EQ(serial[i].p999_fct_ms, parallel[i].p999_fct_ms);
    // Percentiles are ordered and bracket the median the summary computed.
    EXPECT_LE(serial[i].p50_fct_ms, serial[i].p99_fct_ms);
    EXPECT_LE(serial[i].p99_fct_ms, serial[i].p999_fct_ms);
    if (serial[i].p50_fct_ms > 0.0) any_nonzero = true;
  }
  EXPECT_TRUE(any_nonzero) << "percentile columns never filled";
}

TEST(ChaosMatrixTest, FaultCountersAttributeWhatEachScenarioInjects) {
  const std::vector<schemes::Scheme> one{schemes::Scheme::tcp};
  const std::vector<ChaosCell> cells = chaos_sweep(test_config(), one).cells;
  for (const ChaosCell& cell : cells) {
    SCOPED_TRACE(cell.scenario);
    if (cell.scenario == "clean") {
      EXPECT_EQ(cell.fault_drops, 0u);
      EXPECT_EQ(cell.corrupted_rejected, 0u);
      EXPECT_EQ(cell.duplicate_rejected, 0u);
    } else if (cell.scenario == "bursty-loss" || cell.scenario == "blackout" ||
               cell.scenario == "flap") {
      EXPECT_GT(cell.fault_drops, 0u);
    } else if (cell.scenario == "corrupt") {
      EXPECT_GT(cell.corrupted_rejected, 0u);
      EXPECT_EQ(cell.fault_drops, 0u);
    } else if (cell.scenario == "duplicate") {
      EXPECT_GT(cell.duplicate_rejected, 0u);
      EXPECT_EQ(cell.fault_drops, 0u);
    }
  }
}

TEST(ChaosMatrixTest, CleanCellMatchesARunWithoutTheChaosLayer) {
  // Configuring zero faults must not install an injector, and must leave
  // the run bit-identical (same trace hash) to a plain EmulabRunner run of
  // the same workload — the zero-cost-when-off guarantee at system level.
  const ChaosSweepConfig config = test_config();
  EmulabRunner::Config runner_config = config.runner;
  ASSERT_FALSE(runner_config.faults.any());
  EmulabRunner runner{runner_config};
  WorkloadPart part;
  part.scheme = schemes::Scheme::halfback;
  part.role = FlowRole::primary;
  part.schedule = chaos_cell_schedule();
  const RunResult plain = runner.run({part});

  const std::vector<schemes::Scheme> one{schemes::Scheme::halfback};
  const std::vector<ChaosCell> cells = chaos_sweep(config, one).cells;
  ASSERT_FALSE(cells.empty());
  ASSERT_EQ(cells.front().scenario, "clean");
  EXPECT_EQ(cells.front().trace_hash, plain.trace_hash);
  EXPECT_EQ(plain.delivery.corrupted_rejected, 0u);
  EXPECT_EQ(plain.delivery.duplicate_rejected, 0u);
  EXPECT_EQ(plain.faults.packets_seen, 0u);  // no injector existed at all
}

TEST(ChaosMatrixTest, Rc3AdversarialCellDoesNotStormTheEventQueue) {
  // Regression: rc3 under the adversarial composite at seed 42 once ran
  // ~90M events (a retransmission loop kept rescheduling without
  // advancing next_sent_ past the scoreboard's delivered prefix). The fix
  // bounds the cell near its peers — measured 8,259 events after the fix
  // vs 7,316 for tcp. The run now executes under the production event
  // budget (a generous 100k ceiling, orders of magnitude over healthy
  // counts); a relapse trips the budget and the structured BudgetReport
  // names the storming timer class instead of a bare count assertion.
  const std::vector<ChaosScenario> catalog = chaos_catalog();
  const auto adversarial =
      std::find_if(catalog.begin(), catalog.end(), [](const ChaosScenario& s) {
        return s.name == "adversarial";
      });
  ASSERT_NE(adversarial, catalog.end());

  ChaosSweepConfig config = test_config();
  EmulabRunner::Config runner_config = config.runner;
  runner_config.seed = 42;
  runner_config.faults = adversarial->faults;
  runner_config.budget.max_events = 100'000;
  WorkloadPart part;
  part.scheme = schemes::Scheme::rc3;
  part.schedule = chaos_cell_schedule();
  const RunResult result = EmulabRunner{runner_config}.run({part});
  EXPECT_EQ(result.budget_report.tripped, sim::BudgetTrip::none)
      << "event-count explosion: the rc3 retransmission storm is back\n"
      << result.budget_report.summary();
  EXPECT_EQ(result.unfinished_count(FlowRole::primary), 0u)
      << "rc3 flows failed to complete under the adversarial composite";
}

TEST(ChaosMatrixTest, ATightBudgetQuarantinesStormCellsDeterministically) {
  // Synthetic storm: pick an event budget that splits the catalog — the
  // lighter half of the tcp column fits, the heavier half trips. The
  // supervised sweep must quarantine the heavy cells, keep the light cells
  // bit-identical to an unbudgeted sweep, and produce a byte-identical
  // quarantine manifest whether it runs on 1 worker or 4.
  const std::vector<schemes::Scheme> one{schemes::Scheme::tcp};
  ChaosSweepConfig baseline = test_config();
  baseline.verify_determinism = false;
  const ChaosSweepResult healthy = chaos_sweep(baseline, one);
  ASSERT_TRUE(healthy.complete());

  std::vector<std::uint64_t> counts;
  for (const ChaosCell& cell : healthy.cells) {
    counts.push_back(cell.events_executed);
  }
  std::sort(counts.begin(), counts.end());
  const std::uint64_t threshold = counts[counts.size() / 2];
  ASSERT_GT(counts.back(), threshold) << "catalog too uniform to split";

  ChaosSweepConfig tight = baseline;
  tight.cell_budget.max_events = threshold;
  const auto run = [&](unsigned threads) {
    ChaosSweepConfig c = tight;
    c.threads = threads;
    return chaos_sweep(c, one);
  };
  const ChaosSweepResult serial = run(1);
  const ChaosSweepResult wide = run(4);

  // Worker count never changes the manifest bytes or the aggregates.
  EXPECT_EQ(telemetry::quarantine_json(serial.supervision.manifest),
            telemetry::quarantine_json(wide.supervision.manifest));
  EXPECT_FALSE(serial.complete());
  EXPECT_GT(serial.supervision.manifest.quarantined, 0u);
  EXPECT_LT(serial.supervision.manifest.quarantined, serial.cells.size());
  EXPECT_EQ(serial.supervision.manifest.attempted, serial.cells.size());
  EXPECT_EQ(serial.supervision.manifest.completed +
                serial.supervision.manifest.quarantined,
            serial.cells.size());
  // Each quarantined cell tripped its event budget in its one run.
  for (const telemetry::QuarantineRecord& record :
       serial.supervision.manifest.records) {
    SCOPED_TRACE(record.cell);
    EXPECT_EQ(record.reason, "event_count");
    EXPECT_FALSE(record.detail.empty());
  }

  ASSERT_EQ(serial.cells.size(), healthy.cells.size());
  for (std::size_t i = 0; i < serial.cells.size(); ++i) {
    const ChaosCell& cell = serial.cells[i];
    SCOPED_TRACE(cell.scenario);
    if (cell.quarantined) {
      EXPECT_EQ(cell.trip, sim::BudgetTrip::event_count);
    } else {
      // Healthy cells are bit-identical to the unsupervised sweep.
      EXPECT_EQ(cell.trip, sim::BudgetTrip::none);
      EXPECT_EQ(cell.events_executed, healthy.cells[i].events_executed);
      EXPECT_EQ(cell.trace_hash, healthy.cells[i].trace_hash);
    }
  }
}

TEST(ChaosMatrixTest, DifferentSeedsProduceDifferentFaultPatterns) {
  ChaosSweepConfig config = test_config();
  config.verify_determinism = false;
  EmulabRunner::Config a = config.runner;
  a.seed = 1;
  EmulabRunner::Config b = config.runner;
  b.seed = 2;
  for (EmulabRunner::Config* rc : {&a, &b}) {
    rc->faults.gilbert_elliott.p_good_to_bad = 0.02;
    rc->faults.gilbert_elliott.loss_good = 0.01;
  }
  WorkloadPart part;
  part.scheme = schemes::Scheme::tcp;
  part.schedule.push_back({sim::Time::zero(), 100'000});
  RunResult ra = EmulabRunner{a}.run({part});
  RunResult rb = EmulabRunner{b}.run({part});
  EXPECT_NE(ra.trace_hash, rb.trace_hash);
}

}  // namespace
}  // namespace halfback::exp
