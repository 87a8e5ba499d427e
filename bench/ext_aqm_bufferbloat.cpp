// Extension bench (paper §6, Bufferbloat related work): "reducing queuing
// delay (and thus RTT) is fully complementary to our study of reducing the
// number of RTTs in a flow; the improvements multiply."
//
// We verify that claim: short flows through a bloated 600 KB buffer kept
// full by a bulk TCP flow, with the bottleneck running drop-tail vs CoDel,
// for TCP vs Halfback short flows. The paper's sentence predicts the four
// cells multiply: CoDel shortens each RTT, Halfback needs fewer of them.
#include <cstdio>

#include "common.h"
#include "exp/emulab.h"
#include "exp/parallel.h"
#include "stats/table.h"

using namespace halfback;

int main(int argc, char** argv) {
  bench::Options opt = bench::parse_options(argc, argv);
  bench::print_header("Extension: AQM x Halfback",
                      "bufferbloat with drop-tail vs CoDel bottleneck", opt);

  const double duration_s =
      opt.duration_s > 0 ? opt.duration_s : (opt.full ? 300.0 : 60.0);

  sim::Random rng{opt.seed * 5};
  workload::ScheduleConfig sc;
  sc.duration = sim::Time::seconds(duration_s);
  sc.bottleneck = sim::DataRate::megabits_per_second(15);
  sc.target_utilization = 100e3 / 10.0 / sc.bottleneck.bytes_per_second();
  auto shorts = workload::make_schedule(workload::FlowSizeDist::fixed(100'000), sc, rng);

  const auto bg_bytes = static_cast<std::uint64_t>(
      sc.bottleneck.bytes_per_second() * duration_s * 1.2);
  std::vector<workload::FlowArrival> background{{sim::Time::zero(), bg_bytes}};
  transport::SenderConfig bulk;
  bulk.receive_window_segments = 1000;

  struct Cell {
    net::QueueKind queue;
    schemes::Scheme scheme;
    double mean_fct_ms = 0.0;
    double bg_share = 0.0;
    std::uint64_t audit_violations = 0;
  };
  std::vector<Cell> cells{
      {net::QueueKind::drop_tail, schemes::Scheme::tcp},
      {net::QueueKind::drop_tail, schemes::Scheme::halfback},
      {net::QueueKind::codel, schemes::Scheme::tcp},
      {net::QueueKind::codel, schemes::Scheme::halfback},
  };

  exp::parallel_for(
      cells.size(),
      [&](std::size_t i) {
        Cell& cell = cells[i];
        exp::EmulabRunner::Config config;
        config.seed = opt.seed;
        config.dumbbell.bottleneck_buffer_bytes = 600'000;  // badly bloated
        config.dumbbell.bottleneck_queue = cell.queue;
        exp::EmulabRunner runner{config};
        exp::WorkloadPart bg{schemes::Scheme::tcp, background,
                             exp::FlowRole::background, bulk};
        exp::RunResult run = runner.run(
            {exp::WorkloadPart{cell.scheme, shorts, exp::FlowRole::primary, {}}, bg});
        cell.mean_fct_ms = run.mean_fct_ms(exp::FlowRole::primary);
        cell.bg_share = run.bottleneck_utilization;
        cell.audit_violations = run.audit_violations;
      },
      opt.threads);
  bench::exit_on_audit_violations(cells, "ext_aqm_bufferbloat");

  stats::Table table{{"bottleneck queue", "short-flow scheme", "mean FCT (ms)",
                      "bottleneck utilization"}};
  for (const Cell& cell : cells) {
    table.add_row({cell.queue == net::QueueKind::codel ? "CoDel" : "drop-tail",
                   bench::display(cell.scheme), stats::Table::num(cell.mean_fct_ms, 0),
                   stats::Table::num(cell.bg_share, 2)});
  }
  table.print();

  const double dt_tcp = cells[0].mean_fct_ms;
  const double dt_hb = cells[1].mean_fct_ms;
  const double cd_tcp = cells[2].mean_fct_ms;
  const double cd_hb = cells[3].mean_fct_ms;
  std::printf(
      "\nspeedups: Halfback alone %.1fx, CoDel alone %.1fx, combined %.1fx "
      "(product of singles: %.1fx)\n",
      dt_tcp / dt_hb, dt_tcp / cd_tcp, dt_tcp / cd_hb,
      (dt_tcp / dt_hb) * (dt_tcp / cd_tcp));
  std::printf("paper claim (§6): \"the improvements multiply\".\n");
  return 0;
}
