// Fig. 12 — all-short-flow workload: mean FCT vs network utilization and
// the resulting feasible capacity per scheme (§4.3.1).
#include <cstdio>

#include "common.h"
#include "exp/sweep.h"
#include "stats/ascii_plot.h"
#include "stats/table.h"

using namespace halfback;

int main(int argc, char** argv) {
  bench::Options opt = bench::parse_options(argc, argv);
  bench::print_header("Figure 12", "FCT vs utilization, short flows only", opt);

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
  bench::exit_on_audit_violations(cells, "fig12");

  std::vector<std::string> header{"util %"};
  for (schemes::Scheme s : schemes::evaluation_set()) {
    header.push_back(bench::display(s));
  }
  stats::Table table{header};
  for (std::size_t u = 0; u < config.utilizations.size(); ++u) {
    std::vector<std::string> row{
        stats::Table::num(100.0 * config.utilizations[u], 0)};
    for (std::size_t si = 0; si < schemes::evaluation_set().size(); ++si) {
      row.push_back(
          stats::Table::num(cells[u * schemes::evaluation_set().size() + si].mean_fct_ms, 0));
    }
    table.add_row(row);
  }
  std::printf("mean FCT (ms) per utilization\n");
  table.print();
  bench::maybe_write_csv(opt, "fig12_fct_vs_utilization", table);

  std::vector<stats::PlotSeries> plot;
  for (std::size_t si = 0; si < schemes::evaluation_set().size(); ++si) {
    stats::PlotSeries series{bench::display(schemes::evaluation_set()[si]), {}};
    for (std::size_t u = 0; u < config.utilizations.size(); ++u) {
      series.points.emplace_back(
          100.0 * config.utilizations[u],
          cells[u * schemes::evaluation_set().size() + si].mean_fct_ms);
    }
    plot.push_back(std::move(series));
  }
  stats::PlotOptions plot_options;
  plot_options.title = "Fig. 12 — mean FCT vs utilization";
  plot_options.x_label = "utilization %";
  plot_options.y_label = "mean FCT (ms)";
  std::printf("\n%s", stats::ascii_plot(plot, plot_options).c_str());

  auto by_mean = exp::feasible_capacities(cells);
  auto by_median = exp::feasible_capacities(
      cells, {}, [](const exp::SweepCell& c) { return c.median_fct_ms; });
  stats::Table cap{{"scheme", "by mean FCT (% util)", "by median FCT (% util)"}};
  for (const auto& [scheme, capacity] : by_mean) {
    cap.add_row({bench::display(scheme), stats::Table::num(100.0 * capacity, 0),
                 stats::Table::num(100.0 * by_median[scheme], 0)});
  }
  std::printf(
      "\nfeasible capacity (collapse criterion: FCT statistic > 3x its "
      "low-load value;\nthe mean reacts to tail blowups, the median to "
      "collapse of the typical flow)\n");
  cap.print();
  bench::maybe_write_csv(opt, "fig12_feasible_capacity", cap);
  std::printf(
      "\npaper anchors: TCP/TCP-10/TCP-Cache/Reactive 85-90%%, Halfback ~70%%, "
      "JumpStart ~50%%, Proactive ~45%%\n");
  return 0;
}
