// Extension bench (paper §7 future work: "emulation with more complex
// topologies"): short flows traversing a multi-bottleneck parking-lot
// chain while per-hop TCP cross traffic loads every hop independently.
//
// The question: does Halfback's single-RTT pacing + ROPR still pay off
// when the flow must survive several independently-congested queues, where
// the end-to-end RTT (the pacing budget) is the *sum* of hop RTTs but the
// congestion signal is per hop?
#include <cstdio>

#include "common.h"
#include "exp/parallel.h"
#include "exp/parking_lot.h"
#include "stats/table.h"

using namespace halfback;

int main(int argc, char** argv) {
  bench::Options opt = bench::parse_options(argc, argv);
  bench::print_header("Extension: parking lot",
                      "short flows across multi-bottleneck chains", opt);

  const double duration_s = opt.duration_s > 0 ? opt.duration_s : (opt.full ? 120 : 40);
  constexpr std::array<schemes::Scheme, 4> kSet{
      schemes::Scheme::tcp, schemes::Scheme::tcp10, schemes::Scheme::jumpstart,
      schemes::Scheme::halfback};
  const std::vector<int> hop_counts{1, 2, 4};
  const std::vector<double> cross_utils{0.2, 0.5};

  struct Job {
    int hops;
    double util;
    schemes::Scheme scheme;
  };
  std::vector<Job> jobs;
  for (int hops : hop_counts) {
    for (double util : cross_utils) {
      for (schemes::Scheme s : kSet) jobs.push_back({hops, util, s});
    }
  }
  std::vector<exp::ParkingLotResult> results(jobs.size());
  exp::parallel_for(
      jobs.size(),
      [&](std::size_t i) {
        results[i] = exp::run_parking_lot(jobs[i].scheme, jobs[i].hops,
                                          jobs[i].util, opt.seed,
                                          sim::Time::seconds(duration_s));
      },
      opt.threads);
  bench::exit_on_audit_violations(results, "ext_parking_lot");

  stats::Table table{{"hops", "cross util %", "scheme", "mean FCT (ms)",
                      "median (ms)", "timeouts/flow"}};
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Job& job = jobs[i];
    const exp::ParkingLotResult& result = results[i];
    table.add_row({std::to_string(job.hops), stats::Table::num(100 * job.util, 0),
                   bench::display(job.scheme),
                   stats::Table::num(result.fct_ms.mean(), 0),
                   stats::Table::num(result.fct_ms.median(), 0),
                   stats::Table::num(result.timeouts /
                                         static_cast<double>(result.flows),
                                     2)});
  }
  table.print();
  std::printf(
      "\nWith more hops the end-to-end RTT grows, so pacing spreads further\n"
      "and every hop's cross traffic gets a chance to clip the batch; ROPR\n"
      "must recover losses whose signals take the full path RTT to return.\n");
  return 0;
}
