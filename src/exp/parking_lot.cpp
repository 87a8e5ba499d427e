#include "exp/parking_lot.h"

#include <vector>

#include "net/topology.h"
#include "sim/random.h"
#include "workload/flow_schedule.h"

namespace halfback::exp {

namespace {
constexpr sim::Bytes kFlowBytes = 100'000;
constexpr auto kMainFirstStart = sim::Time::seconds(1);
constexpr auto kMainInterval = sim::Time::seconds(2);
constexpr auto kDrain = sim::Time::seconds(30);
}  // namespace

ParkingLotResult run_parking_lot(schemes::Scheme scheme, int hops,
                                 double cross_utilization, std::uint64_t seed,
                                 sim::Time duration) {
  Rig rig{seed};
  net::ParkingLot lot = net::build_parking_lot(rig.network(), hops);

  transport::TransportAgent& main_sender = rig.add_agent(lot.main_sender);
  rig.add_agent(lot.main_receiver);
  std::vector<transport::TransportAgent*> cross_agents;
  for (std::size_t hop = 0; hop < lot.cross_senders.size(); ++hop) {
    cross_agents.push_back(&rig.add_agent(lot.cross_senders[hop]));
    rig.add_agent(lot.cross_receivers[hop]);
  }

  schemes::SchemeContext context;
  net::FlowId next_flow = 1;

  // Per-hop cross traffic: TCP flows at the requested hop utilization.
  sim::Random rng{seed * 31};
  workload::ScheduleConfig sc;
  sc.target_utilization = cross_utilization;
  sc.bottleneck = net::ParkingLot::kHopRate;
  sc.duration = duration;
  for (std::size_t hop = 0; hop < cross_agents.size(); ++hop) {
    for (const workload::FlowArrival& arrival : workload::make_schedule(
             workload::FlowSizeDist::fixed(kFlowBytes), sc, rng)) {
      rig.start_at(arrival.at, *cross_agents[hop], context,
                   FlowSpec{schemes::Scheme::tcp, lot.cross_receivers[hop],
                            next_flow++, arrival.bytes});
    }
  }

  // Main path: a flow of the scheme under test every kMainInterval.
  std::vector<std::size_t> main_flows;
  for (sim::Time at = kMainFirstStart; at < duration; at += kMainInterval) {
    main_flows.push_back(rig.start_at(
        at, main_sender, context,
        FlowSpec{scheme, lot.main_receiver, next_flow++, kFlowBytes}));
  }
  rig.simulator().run_until(duration + kDrain);

  ParkingLotResult result;
  rig.finish(result);
  for (std::size_t start : main_flows) {
    const transport::SenderBase* flow = rig.started(start);
    if (flow == nullptr) continue;  // start never fired
    ++result.flows;
    if (!flow->complete()) ++result.unfinished;
    result.fct_ms.add(flow->complete()
                          ? flow->record().fct().to_ms()
                          : (result.sim_end - flow->record().start_time).to_ms());
    result.timeouts += flow->record().timeouts;
  }
  return result;
}

}  // namespace halfback::exp
