// Fig. 15 — throughput timelines (§4.3.4): a saturated background TCP flow
// disturbed by (a) an optimal burst, (b) Halfback, (c) one TCP short flow,
// (d) two half-size TCP short flows.
#include <array>
#include <cstdio>

#include "common.h"
#include "exp/trace.h"
#include "stats/ascii_plot.h"
#include "stats/table.h"

using namespace halfback;

int main(int argc, char** argv) {
  bench::Options opt = bench::parse_options(argc, argv);
  bench::print_header("Figure 15", "throughput of background and short flows", opt);

  constexpr std::array<exp::TraceScenario, 4> kPanels{
      exp::TraceScenario::optimal, exp::TraceScenario::halfback,
      exp::TraceScenario::single_tcp, exp::TraceScenario::two_tcp_halves};
  std::vector<exp::TraceResult> runs;
  for (exp::TraceScenario scenario : kPanels) {
    runs.push_back(exp::run_trace(opt.seed, scenario));
  }
  bench::exit_on_audit_violations(runs, "fig15");

  for (std::size_t panel = 0; panel < kPanels.size(); ++panel) {
    const std::vector<exp::FlowTrace>& traces = runs[panel].flows;
    std::printf("--- panel: %s ---\n", exp::to_string(kPanels[panel]));

    std::vector<stats::PlotSeries> plot;
    for (const exp::FlowTrace& flow : traces) {
      stats::PlotSeries series{flow.label, {}};
      for (const auto& s : flow.throughput) {
        series.points.emplace_back(s.bucket_start.to_ms(), s.mbps);
      }
      plot.push_back(std::move(series));
    }
    stats::PlotOptions plot_options;
    plot_options.height = 12;
    plot_options.x_label = "time (ms)";
    plot_options.y_label = "throughput (Mbps)";
    std::printf("%s\n", stats::ascii_plot(plot, plot_options).c_str());

    for (const exp::FlowTrace& flow : traces) {
      std::vector<std::pair<double, double>> points;
      for (const auto& s : flow.throughput) {
        points.emplace_back(s.bucket_start.to_ms(), s.mbps);
      }
      stats::print_series(flow.label, "time_ms", "throughput_mbps", points);
      if (flow.completion > sim::Time::zero()) {
        std::printf("# %s completed at %.0f ms (FCT from start %.0f ms)\n\n",
                    flow.label.c_str(), flow.completion.to_ms(),
                    flow.completion.to_ms() - 1000.0);
      }
    }
  }
  std::printf(
      "paper shape: the background flow dips when the short flow arrives; "
      "Halfback's short flow finishes fastest; the background flow regains "
      "half bandwidth quickly and full bandwidth within a couple of "
      "seconds; two concurrent TCP halves disturb it longest.\n");
  return 0;
}
