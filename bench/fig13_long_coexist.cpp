// Fig. 13 — short aggressive flows (10% of traffic) vs long TCP flows
// (90%): normalized FCT of each population across utilizations (§4.3.2).
#include <cstdio>

#include "common.h"
#include "exp/sweep.h"
#include "stats/table.h"

using namespace halfback;

int main(int argc, char** argv) {
  bench::Options opt = bench::parse_options(argc, argv);
  bench::print_header("Figure 13",
                      "normalized FCT, 10% short / 90% long-TCP traffic", opt);

  constexpr std::array<schemes::Scheme, 6> kSet{
      schemes::Scheme::proactive, schemes::Scheme::reactive,
      schemes::Scheme::tcp10,     schemes::Scheme::tcp_cache,
      schemes::Scheme::jumpstart, schemes::Scheme::halfback,
  };

  exp::MixSweepConfig config;
  config.runner.seed = opt.seed;
  config.threads = opt.threads;
  config.long_bytes = opt.full ? 100'000'000 : 2'000'000;
  config.duration =
      sim::Time::seconds(opt.duration_s > 0 ? opt.duration_s : (opt.full ? 300.0 : 60.0));
  config.runner.drain = sim::Time::seconds(opt.full ? 120.0 : 60.0);
  if (opt.full) {
    for (int u = 30; u <= 85; u += 5) config.utilizations.push_back(u / 100.0);
  } else {
    config.utilizations = {0.30, 0.45, 0.60, 0.75, 0.85};
  }

  auto cells = exp::mix_sweep(config, kSet);
  bench::exit_on_audit_violations(cells, "fig13");

  auto print_panel = [&](const char* title, bool shorts) {
    std::vector<std::string> header{"util %"};
    for (schemes::Scheme s : kSet) header.push_back(bench::display(s));
    stats::Table table{header};
    for (std::size_t u = 0; u < config.utilizations.size(); ++u) {
      std::vector<std::string> row{stats::Table::num(100.0 * config.utilizations[u], 0)};
      for (std::size_t si = 0; si < kSet.size(); ++si) {
        const exp::MixCell& c = cells[u * kSet.size() + si];
        row.push_back(stats::Table::num(
            shorts ? c.short_fct_normalized : c.long_fct_normalized, 2));
      }
      table.add_row(row);
    }
    std::printf("%s (FCT normalized by the all-TCP baseline; <1 is faster)\n", title);
    table.print();
    std::printf("\n");
  };

  print_panel("(a) short flows", true);
  print_panel("(b) long flows", false);
  std::printf(
      "paper anchors: short flows — Halfback ~0.44x TCP, JumpStart ~0.49x, "
      "TCP-10 ~0.71x, Proactive slightly >1. long flows — Proactive up to "
      "+25%%, JumpStart ~+10%%, Halfback ~+3%%.\n");
  return 0;
}
