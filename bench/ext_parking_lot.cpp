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
#include "exp/rig.h"
#include "net/topology.h"
#include "stats/summary.h"
#include "stats/table.h"
#include "workload/flow_schedule.h"

using namespace halfback;

namespace {

struct Result : exp::RunRecord {
  stats::Summary fct_ms;
  double timeouts = 0;
  std::size_t flows = 0;
};

Result run_chain(schemes::Scheme scheme, int hops, double cross_utilization,
                 std::uint64_t seed, double duration_s) {
  exp::Rig rig{seed};
  net::ParkingLot lot = net::build_parking_lot(rig.network(), hops);

  transport::TransportAgent& main_sender = rig.add_agent(lot.main_sender);
  rig.add_agent(lot.main_receiver);
  std::vector<transport::TransportAgent*> cross_agents;
  for (int h = 0; h < hops; ++h) {
    cross_agents.push_back(&rig.add_agent(lot.cross_senders[static_cast<std::size_t>(h)]));
    rig.add_agent(lot.cross_receivers[static_cast<std::size_t>(h)]);
  }

  schemes::SchemeContext context;
  net::FlowId next_flow = 1;

  // Per-hop cross traffic: TCP flows at the requested hop utilization.
  sim::Random rng{seed * 31};
  workload::ScheduleConfig sc;
  sc.target_utilization = cross_utilization;
  sc.bottleneck = net::ParkingLot::kHopRate;
  sc.duration = sim::Time::seconds(duration_s);
  for (int h = 0; h < hops; ++h) {
    const auto hop = static_cast<std::size_t>(h);
    auto schedule =
        workload::make_schedule(workload::FlowSizeDist::fixed(100'000), sc, rng);
    for (const workload::FlowArrival& arrival : schedule) {
      rig.start_at(arrival.at, *cross_agents[hop], context,
                   exp::FlowSpec{schemes::Scheme::tcp, lot.cross_receivers[hop],
                                 next_flow++, arrival.bytes});
    }
  }

  // Main path: a 100 KB flow of the scheme under test every ~2 s.
  std::vector<std::size_t> main_flows;
  for (double t = 1.0; t < duration_s; t += 2.0) {
    main_flows.push_back(rig.start_at(
        sim::Time::seconds(t), main_sender, context,
        exp::FlowSpec{scheme, lot.main_receiver, next_flow++, 100'000}));
  }
  rig.simulator().run_until(sim::Time::seconds(duration_s + 30));

  Result result;
  rig.finish(result);
  for (std::size_t start : main_flows) {
    const transport::SenderBase* flow = rig.started(start);
    if (flow == nullptr) continue;  // start never fired
    ++result.flows;
    result.fct_ms.add(flow->complete()
                          ? flow->record().fct().to_ms()
                          : (result.sim_end - flow->record().start_time).to_ms());
    result.timeouts += flow->record().timeouts;
  }
  return result;
}

}  // namespace

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
  std::vector<Result> results(jobs.size());
  exp::parallel_for(
      jobs.size(),
      [&](std::size_t i) {
        results[i] = run_chain(jobs[i].scheme, jobs[i].hops, jobs[i].util,
                               opt.seed, duration_s);
      },
      opt.threads);
  bench::exit_on_audit_violations(results, "ext_parking_lot");

  stats::Table table{{"hops", "cross util %", "scheme", "mean FCT (ms)",
                      "median (ms)", "timeouts/flow"}};
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Job& job = jobs[i];
    const Result& result = results[i];
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
