// Fig. 14 — TCP-friendliness scatter (§4.3.3): half the flows run the
// scheme under test, half run TCP; each point reports the factor change in
// FCT of each population relative to its single-protocol reference.
#include <cstdio>

#include "common.h"
#include "exp/sweep.h"
#include "stats/table.h"

using namespace halfback;

int main(int argc, char** argv) {
  bench::Options opt = bench::parse_options(argc, argv);
  bench::print_header("Figure 14", "TCP-friendliness of non-TCP schemes", opt);

  constexpr std::array<schemes::Scheme, 7> kSet{
      schemes::Scheme::jumpstart, schemes::Scheme::halfback,
      schemes::Scheme::proactive, schemes::Scheme::reactive,
      schemes::Scheme::tcp10,     schemes::Scheme::pcp,
      schemes::Scheme::tcp_cache,
  };

  exp::FriendlinessConfig config;
  config.runner.seed = opt.seed;
  config.threads = opt.threads;
  config.duration =
      sim::Time::seconds(opt.duration_s > 0 ? opt.duration_s : (opt.full ? 300.0 : 60.0));
  if (!opt.full) config.utilizations = {0.10, 0.20, 0.30};

  auto points = exp::friendliness_matrix(config, kSet);
  bench::exit_on_audit_violations(points, "fig14");

  stats::Table table{{"scheme", "util %", "TCP FCT vs reference (x)",
                      "scheme FCT vs reference (y)", "Jain fairness of FCTs"}};
  for (const exp::FriendlinessPoint& p : points) {
    table.add_row({bench::display(p.scheme), stats::Table::num(100.0 * p.utilization, 0),
                   stats::Table::num(p.tcp_fct_vs_reference, 3),
                   stats::Table::num(p.scheme_fct_vs_reference, 3),
                   stats::Table::num(p.fct_fairness, 3)});
  }
  table.print();
  bench::maybe_write_csv(opt, "fig14_friendliness", table);
  std::printf(
      "\npaper shape: Halfback, TCP-10, TCP-Cache and Reactive cluster near "
      "(1,1); JumpStart and Proactive push TCP right of 1 (unfriendly); PCP "
      "sits above 1 on its own axis (it loses to TCP).\n");
  return 0;
}
