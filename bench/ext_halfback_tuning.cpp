// Extension bench: the two Halfback refinements the paper proposes but
// does not evaluate —
//   * §4.2.4: an initial burst (a TCP-10-style window) before the Pacing
//     Phase, to fix the small-flow region where TCP-Cache/TCP-10 win;
//   * §5: tuning the proactive bandwidth ("two retransmissions for every
//     three ACKs" instead of one per ACK).
#include <cstdio>

#include "common.h"
#include "exp/emulab.h"
#include "exp/parallel.h"
#include "stats/table.h"

using namespace halfback;

namespace {

struct Variant {
  const char* name;
  schemes::HalfbackConfig config;
};

}  // namespace

int main(int argc, char** argv) {
  bench::Options opt = bench::parse_options(argc, argv);
  bench::print_header("Extension: Halfback tuning",
                      "initial-burst refinement and ROPR bandwidth ratio", opt);

  std::vector<Variant> variants;
  variants.push_back({"halfback (paper)", {}});
  {
    schemes::HalfbackConfig c;
    c.initial_burst_segments = 10;
    variants.push_back({"+10-segment initial burst", c});
  }
  {
    schemes::HalfbackConfig c;
    c.copies_per_ack = 2.0 / 3.0;
    variants.push_back({"2 copies per 3 ACKs", c});
  }
  {
    schemes::HalfbackConfig c;
    c.copies_per_ack = 0.5;
    variants.push_back({"1 copy per 2 ACKs", c});
  }

  // Part 1: small-flow FCT (the §4.2.4 motivation) on an idle path.
  std::printf("(a) FCT by flow size on an idle path (ms)\n");
  const std::vector<std::uint64_t> sizes_kb{5, 15, 30, 60, 100};
  std::vector<std::string> header{"variant"};
  for (std::uint64_t kb : sizes_kb) header.push_back(std::to_string(kb) + "KB");
  stats::Table small{header};
  std::vector<exp::RunResult> idle_runs;
  for (const Variant& v : variants) {
    std::vector<std::string> row{v.name};
    for (std::uint64_t kb : sizes_kb) {
      exp::EmulabRunner::Config config;
      config.seed = opt.seed;
      config.halfback_config = v.config;
      exp::EmulabRunner runner{config};
      exp::WorkloadPart part{schemes::Scheme::halfback,
                             {{sim::Time::zero(), kb * 1000}},
                             exp::FlowRole::primary,
                             {}};
      exp::RunResult run = runner.run({part});
      row.push_back(stats::Table::num(run.mean_fct_ms(exp::FlowRole::primary), 0));
      idle_runs.push_back(std::move(run));
    }
    small.add_row(row);
  }
  bench::exit_on_audit_violations(idle_runs, "ext_halfback_tuning idle");
  small.print();

  // Part 2: overhead and FCT under a 45% all-short workload — the ratio
  // trades proactive bandwidth against recovery speed (§5's open
  // question).
  std::printf("\n(b) 100 KB flows at 45%% utilization: overhead vs latency\n");
  const double duration_s = opt.duration_s > 0 ? opt.duration_s : 40.0;
  sim::Random rng{opt.seed * 3};
  workload::ScheduleConfig sc;
  sc.duration = sim::Time::seconds(duration_s);
  sc.bottleneck = sim::DataRate::megabits_per_second(15);
  sc.target_utilization = 0.45;
  auto schedule = workload::make_schedule(workload::FlowSizeDist::fixed(100'000), sc, rng);

  stats::Table load{{"variant", "mean FCT (ms)", "median (ms)",
                     "proactive retx/flow", "timeouts/flow"}};
  std::vector<std::vector<std::string>> rows(variants.size());
  std::vector<exp::RunResult> load_runs(variants.size());
  exp::parallel_for(
      variants.size(),
      [&](std::size_t i) {
        exp::EmulabRunner::Config config;
        config.seed = opt.seed;
        config.halfback_config = variants[i].config;
        exp::EmulabRunner runner{config};
        exp::RunResult run = runner.run(
            {exp::WorkloadPart{schemes::Scheme::halfback, schedule,
                               exp::FlowRole::primary, {}}});
        const exp::RoleStats primary = run.role_stats(exp::FlowRole::primary);
        rows[i] = {variants[i].name, stats::Table::num(primary.mean_fct_ms, 0),
                   stats::Table::num(primary.median_fct_ms, 0),
                   stats::Table::num(primary.mean_proactive_retx, 1),
                   stats::Table::num(primary.mean_timeouts, 2)};
        load_runs[i] = std::move(run);
      },
      opt.threads);
  bench::exit_on_audit_violations(load_runs, "ext_halfback_tuning load");
  for (auto& row : rows) load.add_row(std::move(row));
  load.print();
  std::printf(
      "\nThe ratio dial trades proactive bandwidth (copies/flow) against\n"
      "timeout exposure — the \"interesting open question\" of §5.\n");
  return 0;
}
