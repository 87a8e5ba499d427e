// Data-center incast scenario: an aggregator fans a query out to N worker
// servers; every worker answers with a small response at once, and the
// job completes when the *last* response arrives. The synchronized burst
// overflows the shallow top-of-rack buffer — the classic incast collapse —
// and the question is which transport recovers the clipped tails fastest.
//
// §2.1 of the paper argues short-flow acceleration is applicable to data
// centers (flows < 141 KB carry < 1% of DC bytes, so the overhead is
// negligible); this example probes how the schemes behave there.
//
//   $ ./examples/datacenter_incast [workers] [response_kb]
//
// Exits 1 if the run rig's invariant auditor reports a violation.
#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "exp/rig.h"
#include "net/topology.h"

using namespace halfback;

namespace {

struct IncastResult {
  double job_completion_ms = 0.0;  ///< slowest response (finished flows)
  double median_flow_ms = 0.0;
  std::uint32_t timeouts = 0;
  std::uint32_t drops = 0;
  int finished = 0;
  int workers = 0;
};

IncastResult run_incast(schemes::Scheme scheme, int workers,
                        std::uint64_t response_bytes) {
  exp::Rig rig{3};

  // N workers behind a ToR switch, one aggregator link: 1 Gbps everywhere,
  // 100 us RTT, a shallow 64 KB switch buffer (the incast ingredient).
  net::DumbbellConfig topo;
  topo.sender_count = workers;
  topo.receiver_count = 1;
  topo.access_rate = sim::DataRate::gigabits_per_second(10);
  topo.bottleneck_rate = sim::DataRate::gigabits_per_second(1);
  topo.rtt = sim::Time::microseconds(100);
  topo.bottleneck_buffer_bytes = 64'000;
  net::Dumbbell dumbbell = net::build_dumbbell(rig.network(), topo);

  // Agents 0..workers-1 answer; the aggregator's agent comes last.
  for (net::NodeId id : dumbbell.senders) rig.add_agent(id);
  rig.add_agent(dumbbell.receivers[0]);

  std::uint32_t drops = 0;
  dumbbell.bottleneck_forward->queue().set_drop_callback(
      [&](const net::Packet&) { ++drops; });

  // Data-center transports use much finer timers than the WAN defaults.
  schemes::SchemeContext context;
  context.sender_config.rtt.min_rto = sim::Time::milliseconds(5);
  context.sender_config.rtt.initial_rto = sim::Time::milliseconds(10);

  std::vector<transport::SenderBase*> responses;
  for (int w = 0; w < workers; ++w) {
    responses.push_back(&rig.start(
        rig.agent(static_cast<std::size_t>(w)), context,
        exp::FlowSpec{scheme, dumbbell.receivers[0], static_cast<net::FlowId>(w + 1),
                      response_bytes}));
  }
  rig.simulator().run_until(sim::Time::seconds(60));
  exp::RunRecord run;
  rig.finish(run);
  if (run.audit_violations > 0) {
    std::fprintf(stderr, "datacenter_incast: invariant violations\n%s",
                 rig.auditor().report().c_str());
    std::exit(1);
  }

  IncastResult result;
  result.workers = workers;
  std::vector<double> fcts;
  for (transport::SenderBase* flow : responses) {
    result.timeouts += flow->record().timeouts;
    if (!flow->complete()) continue;
    ++result.finished;
    fcts.push_back(flow->record().fct().to_ms());
  }
  if (!fcts.empty()) {
    std::sort(fcts.begin(), fcts.end());
    result.job_completion_ms = fcts.back();
    result.median_flow_ms = fcts[fcts.size() / 2];
  }
  result.drops = drops;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const int workers = argc > 1 ? std::atoi(argv[1]) : 32;
  const std::uint64_t response_kb = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 50;

  std::printf("incast: %d workers x %llu KB responses through a 1 Gbps / 64 KB "
              "ToR port (100 us RTT, 5 ms min RTO)\n\n",
              workers, static_cast<unsigned long long>(response_kb));
  std::printf("%-10s %20s %18s %10s %8s %10s\n", "scheme", "job completion (ms)",
              "median flow (ms)", "timeouts", "drops", "finished");
  for (schemes::Scheme scheme :
       {schemes::Scheme::tcp, schemes::Scheme::tcp10, schemes::Scheme::reactive,
        schemes::Scheme::jumpstart, schemes::Scheme::halfback}) {
    IncastResult r = run_incast(scheme, workers, response_kb * 1000);
    std::printf("%-10s %20.1f %18.1f %10u %8u %6d/%d\n", schemes::name(scheme),
                r.job_completion_ms, r.median_flow_ms, r.timeouts, r.drops,
                r.finished, r.workers);
  }
  std::printf(
      "\nThe job is gated by the slowest response. Pacing a whole response\n"
      "into a 100 us RTT overshoots the ToR port ~40x, so the paced schemes\n"
      "lose most of their first round — and then their recovery styles\n"
      "diverge exactly as in the paper: JumpStart's line-rate retransmission\n"
      "storms re-collide (watch its drop count) while Halfback's ACK-clocked\n"
      "ROPR drains the survivors' rate and completes the job with far fewer\n"
      "timeouts. The conservative starters (TCP-10) remain competitive here:\n"
      "a WAN startup does not transplant to the datacenter unmodified.\n");
  return 0;
}
