// Fig. 9 — FCT CDFs of Halfback vs TCP behind four residential access
// profiles (§4.2.2).
#include <cstdio>
#include <string>

#include "common.h"
#include "exp/homenet.h"
#include "stats/summary.h"
#include "stats/table.h"

using namespace halfback;

int main(int argc, char** argv) {
  bench::Options opt = bench::parse_options(argc, argv);
  bench::print_header("Figure 9", "FCT on home access networks", opt);

  exp::HomeNetConfig config;
  config.server_count = opt.pairs > 0 ? opt.pairs : (opt.full ? 170 : 60);
  config.seed = opt.seed * 7;
  config.threads = opt.threads;
  exp::HomeNetEnv env{config};

  stats::Table table{{"profile", "scheme", "median FCT (ms)", "mean (ms)",
                      "median reduction vs TCP (%)"}};
  for (const exp::HomeNetProfile& profile : exp::home_profiles()) {
    const auto halfback_trials = env.run(schemes::Scheme::halfback, profile);
    bench::exit_on_audit_violations(halfback_trials,
                                    std::string("halfback ") + profile.name);
    const auto tcp_trials = env.run(schemes::Scheme::tcp, profile);
    bench::exit_on_audit_violations(tcp_trials,
                                    std::string("tcp ") + profile.name);
    stats::Summary halfback, tcp;
    for (const auto& t : halfback_trials) halfback.add(t.record.fct().to_ms());
    for (const auto& t : tcp_trials) tcp.add(t.record.fct().to_ms());
    table.add_row({profile.name, "Halfback", stats::Table::num(halfback.median(), 0),
                   stats::Table::num(halfback.mean(), 0),
                   stats::Table::num(100.0 * (1.0 - halfback.median() / tcp.median()), 0)});
    table.add_row({profile.name, "TCP", stats::Table::num(tcp.median(), 0),
                   stats::Table::num(tcp.mean(), 0), "-"});

    std::vector<std::pair<double, double>> hp, tp;
    for (const auto& p : halfback.cdf(40)) hp.emplace_back(p.value, p.percent);
    for (const auto& p : tcp.cdf(40)) tp.emplace_back(p.value, p.percent);
    stats::print_series(std::string("Fig 9 — Halfback - ") + profile.name,
                        "latency_ms", "fraction_of_trials", hp);
    stats::print_series(std::string("Fig 9 — TCP - ") + profile.name, "latency_ms",
                        "fraction_of_trials", tp);
  }
  std::printf("paper anchors: median FCT reduction 50%% (Comcast wired), 68%% "
              "(ConnectivityU wireless), 50%% (ConnectivityU wired), 18%% (AT&T)\n\n");
  table.print();
  return 0;
}
