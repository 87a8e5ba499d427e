// Fig. 1 — the headline trade-off scatter: common-case latency (mean FCT
// at low utilization) against feasible capacity under the pessimistic
// all-short-flow workload. Derived from the same sweep as Fig. 12.
#include <cstdio>

#include "common.h"
#include "exp/sweep.h"
#include "stats/table.h"

using namespace halfback;

int main(int argc, char** argv) {
  bench::Options opt = bench::parse_options(argc, argv);
  bench::print_header("Figure 1", "latency vs feasible-capacity trade-off", opt);

  exp::UtilizationSweepConfig config;
  config.runner.seed = opt.seed;
  config.threads = opt.threads;
  config.replications = opt.replications;
  config.duration =
      sim::Time::seconds(opt.duration_s > 0 ? opt.duration_s : (opt.full ? 120.0 : 40.0));
  if (opt.full) {
    for (int u = 5; u <= 90; u += 5) config.utilizations.push_back(u / 100.0);
  } else {
    config.utilizations = {0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 0.90};
  }

  auto cells = exp::utilization_sweep(config, schemes::evaluation_set());
  bench::exit_on_audit_violations(cells, "fig01");
  auto capacity = exp::feasible_capacities(
      cells, {}, [](const exp::SweepCell& c) { return c.median_fct_ms; });
  auto latency = exp::low_load_fct(cells);

  stats::Table table{{"scheme", "feasible capacity (% util)", "low-load FCT (ms)"}};
  for (schemes::Scheme s : schemes::evaluation_set()) {
    table.add_row({bench::display(s), stats::Table::num(100.0 * capacity[s], 0),
                   stats::Table::num(latency[s], 0)});
  }
  table.print();
  bench::maybe_write_csv(opt, "fig01_tradeoff", table);
  std::printf(
      "\npaper shape: Halfback sits on the frontier — lowest latency band "
      "(~with JumpStart) at substantially higher feasible capacity; TCP "
      "family is safe but slow; Proactive is neither.\n");
  return 0;
}
