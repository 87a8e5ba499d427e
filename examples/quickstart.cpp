// Quickstart: simulate one Halfback flow against one TCP flow on the
// paper's Emulab dumbbell and print what happened.
//
//   $ ./examples/quickstart [flow_bytes]
//
// This is the smallest complete use of the library: build a topology on a
// run rig, attach transport agents, start flows via the scheme factory, run
// the simulator, check the run's invariants, read the flow records. Exits 1
// if the rig's invariant auditor reports a violation, and 2 if flow_bytes is
// not a non-negative integer.
#include <cstdio>
#include <cstdlib>

#include "common.h"
#include "exp/rig.h"
#include "net/topology.h"

using namespace halfback;

namespace {

transport::FlowRecord run_one(schemes::Scheme scheme, std::uint64_t bytes) {
  // 1. A rig owns one run: the simulator (virtual time and seeded
  //    randomness), the invariant auditor and the network.
  exp::Rig rig{/*seed=*/42};

  // 2. Build the paper's single-bottleneck dumbbell (Fig. 4): 1 Gbps access
  //    links, a 15 Mbps / 60 ms RTT bottleneck with a BDP-sized buffer.
  net::DumbbellConfig topo;
  topo.sender_count = 1;
  topo.receiver_count = 1;
  net::Dumbbell dumbbell = net::build_dumbbell(rig.network(), topo);

  // 3. Attach a transport agent to each end host.
  transport::TransportAgent& sender_host = rig.add_agent(dumbbell.senders[0]);
  rig.add_agent(dumbbell.receivers[0]);

  // 4. Create a sender for the chosen scheme and start the flow.
  schemes::SchemeContext context;  // default §4.1 parameters
  transport::SenderBase& flow = rig.start(
      sender_host, context,
      exp::FlowSpec{scheme, dumbbell.receivers[0], /*flow=*/1, bytes});

  // 5. Run to completion, audit the run, and read the results.
  rig.simulator().run();
  exp::RunRecord run;
  rig.finish(run);
  if (run.audit_violations > 0) {
    std::fprintf(stderr, "quickstart: invariant violations\n%s",
                 rig.auditor().report().c_str());
    std::exit(1);
  }
  return flow.record();
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t bytes =
      argc > 1 ? bench::parse_count("flow_bytes", argv[1]) : 100'000;

  std::printf("transferring %llu bytes over a 15 Mbps / 60 ms RTT bottleneck\n\n",
              static_cast<unsigned long long>(bytes));
  std::printf("%-10s %12s %8s %14s %16s %9s\n", "scheme", "FCT (ms)", "RTTs",
              "data packets", "proactive retx", "timeouts");
  for (schemes::Scheme scheme :
       {schemes::Scheme::tcp, schemes::Scheme::tcp10, schemes::Scheme::jumpstart,
        schemes::Scheme::halfback}) {
    transport::FlowRecord record = run_one(scheme, bytes);
    if (!record.completed) {
      std::printf("%-10s did not complete\n", schemes::name(scheme));
      continue;
    }
    std::printf("%-10s %12.1f %8.1f %14u %16u %9u\n", schemes::name(scheme),
                record.fct().to_ms(), record.rtts_used(), record.data_packets_sent,
                record.proactive_retx, record.timeouts);
  }
  std::printf(
      "\nHalfback finishes in ~3 RTTs (handshake + paced RTT + tail ACK),\n"
      "proactively re-sending ~half the flow (the ROPR phase) as insurance\n"
      "against losses from its aggressive start.\n");
  return 0;
}
