// Fig. 16 — application-level benchmark (§4.4): mean web page response
// time vs network utilization for TCP, TCP-10, JumpStart and Halfback.
#include <cstdio>

#include "common.h"
#include "exp/parallel.h"
#include "exp/web.h"
#include "stats/ascii_plot.h"
#include "stats/summary.h"
#include "stats/table.h"
#include "workload/web.h"

using namespace halfback;

int main(int argc, char** argv) {
  bench::Options opt = bench::parse_options(argc, argv);
  bench::print_header("Figure 16", "web page response time vs utilization", opt);

  constexpr std::array<schemes::Scheme, 4> kSet{
      schemes::Scheme::jumpstart, schemes::Scheme::halfback,
      schemes::Scheme::tcp, schemes::Scheme::tcp10};
  std::vector<double> utils;
  if (opt.full) {
    for (int u = 10; u <= 60; u += 5) utils.push_back(u / 100.0);
  } else {
    utils = {0.10, 0.20, 0.30, 0.40, 0.50, 0.60};
  }
  const double duration_s =
      opt.duration_s > 0 ? opt.duration_s : (opt.full ? 120.0 : 30.0);

  workload::WebsiteCatalog catalog{opt.full ? 100 : 40, sim::Random{opt.seed * 17}};

  // One request schedule per utilization, shared across schemes.
  const auto bottleneck = sim::DataRate::megabits_per_second(15);
  std::vector<std::vector<workload::WebRequest>> schedules;
  for (std::size_t u = 0; u < utils.size(); ++u) {
    sim::Random rng{opt.seed * 23 + u};
    schedules.push_back(workload::make_web_schedule(
        catalog, utils[u], bottleneck, sim::Time::seconds(duration_s), rng));
  }

  std::vector<exp::WebRunOutcome> outcomes(utils.size() * kSet.size());
  exp::parallel_for(
      outcomes.size(),
      [&](std::size_t i) {
        const std::size_t u = i / kSet.size();
        const schemes::Scheme scheme = kSet[i % kSet.size()];
        outcomes[i] = exp::WebRunner{opt.seed}.run(scheme, catalog, schedules[u]);
      },
      opt.threads);
  bench::exit_on_audit_violations(outcomes, "fig16");
  std::vector<double> mean_response;
  for (const exp::WebRunOutcome& outcome : outcomes) {
    mean_response.push_back(outcome.mean_response_s());
  }

  std::vector<std::string> header{"util %"};
  for (schemes::Scheme s : kSet) header.push_back(bench::display(s));
  stats::Table table{header};
  for (std::size_t u = 0; u < utils.size(); ++u) {
    std::vector<std::string> row{stats::Table::num(100.0 * utils[u], 0)};
    for (std::size_t si = 0; si < kSet.size(); ++si) {
      row.push_back(stats::Table::num(mean_response[u * kSet.size() + si], 2));
    }
    table.add_row(row);
  }
  std::printf("mean page response time (s)\n");
  table.print();
  bench::maybe_write_csv(opt, "fig16_response_vs_utilization", table);

  std::vector<stats::PlotSeries> plot;
  for (std::size_t si = 0; si < kSet.size(); ++si) {
    stats::PlotSeries series{bench::display(kSet[si]), {}};
    for (std::size_t u = 0; u < utils.size(); ++u) {
      series.points.emplace_back(100.0 * utils[u], mean_response[u * kSet.size() + si]);
    }
    plot.push_back(std::move(series));
  }
  stats::PlotOptions plot_options;
  plot_options.title = "Fig. 16 — mean page response vs utilization";
  plot_options.x_label = "utilization %";
  plot_options.y_label = "response (s)";
  std::printf("\n%s", stats::ascii_plot(plot, plot_options).c_str());
  std::printf(
      "\npaper anchors: JumpStart crosses above TCP near 30%% utilization "
      "(and is 592 ms / ~27%% slower than Halfback there); Halfback stays "
      "best until ~55%%.\n");
  return 0;
}
