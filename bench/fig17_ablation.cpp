// Fig. 17 / Table 1 discussion (§5) — the ROPR design-space ablation:
// Halfback vs Halfback-Forward (forward-ordered proactive retransmission)
// vs Halfback-Burst (line-rate proactive retransmission), alongside the
// bracketing schemes.
#include <array>
#include <cstdio>

#include "common.h"
#include "exp/sweep.h"
#include "stats/table.h"

using namespace halfback;

int main(int argc, char** argv) {
  bench::Options opt = bench::parse_options(argc, argv);
  bench::print_header("Figure 17", "ROPR ablations: FCT and feasible capacity", opt);

  constexpr std::array<schemes::Scheme, 7> kAblationSet{
      schemes::Scheme::proactive,       schemes::Scheme::tcp,
      schemes::Scheme::tcp10,           schemes::Scheme::halfback_burst,
      schemes::Scheme::halfback_forward, schemes::Scheme::jumpstart,
      schemes::Scheme::halfback,
  };

  exp::UtilizationSweepConfig config;
  config.runner.seed = opt.seed;
  config.threads = opt.threads;
  config.replications = opt.replications;
  config.duration =
      sim::Time::seconds(opt.duration_s > 0 ? opt.duration_s : (opt.full ? 120.0 : 40.0));
  if (opt.full) {
    for (int u = 5; u <= 90; u += 5) config.utilizations.push_back(u / 100.0);
  } else {
    config.utilizations = {0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85};
  }

  auto cells = exp::utilization_sweep(config, kAblationSet);
  bench::exit_on_audit_violations(cells, "fig17");

  std::vector<std::string> header{"util %"};
  for (schemes::Scheme s : kAblationSet) header.push_back(bench::display(s));
  stats::Table table{header};
  for (std::size_t u = 0; u < config.utilizations.size(); ++u) {
    std::vector<std::string> row{stats::Table::num(100.0 * config.utilizations[u], 0)};
    for (std::size_t si = 0; si < kAblationSet.size(); ++si) {
      row.push_back(stats::Table::num(cells[u * kAblationSet.size() + si].mean_fct_ms, 0));
    }
    table.add_row(row);
  }
  std::printf("mean FCT (ms) per utilization\n");
  table.print();

  auto capacities = exp::feasible_capacities(
      cells, {}, [](const exp::SweepCell& c) { return c.median_fct_ms; });
  stats::Table cap{{"scheme", "feasible capacity (% util)", "proactive retx/flow @low"}};
  for (std::size_t si = 0; si < kAblationSet.size(); ++si) {
    const schemes::Scheme s = kAblationSet[si];
    cap.add_row({bench::display(s), stats::Table::num(100.0 * capacities[s], 0),
                 stats::Table::num(cells[si].mean_proactive_retx, 1)});
  }
  std::printf("\n");
  cap.print();
  std::printf(
      "\npaper anchors (§5): Halfback-Forward collapses near 35%% (wasted "
      "forward copies), Halfback-Burst well below Halfback (line-rate "
      "retransmission loses its own copies), Halfback ~70%%\n");
  return 0;
}
