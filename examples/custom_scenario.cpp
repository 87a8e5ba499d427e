// Custom scenario runner: a small CLI over the library so you can explore
// any (scheme, path, flow) combination without writing code.
//
//   $ ./examples/custom_scenario scheme=halfback bytes=200000 rtt_ms=80 rate_mbps=10 buffer_kb=64 loss=0.01 flows=5 trace=1
//
// Every key is optional; defaults reproduce the paper's Emulab bottleneck.
// An unknown key or value exits 2, numbers parse as the benches parse
// theirs, and a run with an unfinished flow or an invariant violation
// exits 1.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <optional>
#include <string>
#include <utility>

#include "common.h"
#include "exp/rig.h"
#include "net/topology.h"
#include "netfault/fault_injector.h"
#include "stats/summary.h"
#include "telemetry/hub.h"

using namespace halfback;

namespace {

/// The bottleneck disciplines queue= accepts.
constexpr std::pair<const char*, net::QueueKind> kQueues[] = {
    {"droptail", net::QueueKind::drop_tail},
    {"red", net::QueueKind::red},
    {"codel", net::QueueKind::codel},
    {"priority", net::QueueKind::priority},
};

struct Args {
  schemes::Scheme scheme = schemes::Scheme::halfback;
  std::uint64_t bytes = 100'000;
  double rtt_ms = 60;
  double rate_mbps = 15;
  std::uint64_t buffer_kb = 115;
  double loss = 0.0;
  std::size_t flows = 1;
  double gap_ms = 200;  ///< interval between flow starts
  std::uint64_t seed = 1;
  bool trace = false;
  const std::pair<const char*, net::QueueKind>* queue = kQueues;  ///< into kQueues
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (eq == std::string::npos) {
      std::fprintf(stderr, "expected key=value, got '%s'\n", arg.c_str());
      std::exit(2);
    }
    const std::string key = arg.substr(0, eq);
    const std::string value = arg.substr(eq + 1);
    if (key == "scheme") {
      auto parsed = schemes::parse_scheme(value);
      if (!parsed) {
        std::fprintf(stderr, "unknown scheme '%s'; known:", value.c_str());
        for (const auto& info : schemes::all_schemes()) {
          std::fprintf(stderr, " %s", info.name);
        }
        std::fprintf(stderr, "\n");
        std::exit(2);
      }
      a.scheme = *parsed;
    } else if (key == "bytes") {
      a.bytes = bench::parse_count("bytes", value.c_str());
    } else if (key == "rtt_ms") {
      a.rtt_ms = bench::parse_number("rtt_ms", value.c_str());
    } else if (key == "rate_mbps") {
      a.rate_mbps = bench::parse_number("rate_mbps", value.c_str());
    } else if (key == "buffer_kb") {
      a.buffer_kb = bench::parse_count("buffer_kb", value.c_str());
    } else if (key == "loss") {
      a.loss = bench::parse_number("loss", value.c_str());
    } else if (key == "flows") {
      a.flows = bench::parse_count("flows", value.c_str());
    } else if (key == "gap_ms") {
      a.gap_ms = bench::parse_number("gap_ms", value.c_str());
    } else if (key == "seed") {
      a.seed = bench::parse_count("seed", value.c_str());
    } else if (key == "trace") {
      a.trace = value != "0";
    } else if (key == "queue") {
      a.queue = std::find_if(std::begin(kQueues), std::end(kQueues),
                             [&](const auto& q) { return value == q.first; });
      if (a.queue == std::end(kQueues)) {
        std::fprintf(stderr, "unknown queue '%s'; known:", value.c_str());
        for (const auto& [name, kind] : kQueues) std::fprintf(stderr, " %s", name);
        std::fprintf(stderr, "\n");
        std::exit(2);
      }
    } else {
      std::fprintf(stderr, "unknown key '%s'\n", key.c_str());
      std::exit(2);
    }
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  Args args = parse(argc, argv);

  exp::Rig rig{args.seed};
  net::DumbbellConfig topo;
  topo.sender_count = 1;
  topo.receiver_count = 1;
  topo.bottleneck_rate = sim::DataRate::megabits_per_second(args.rate_mbps);
  topo.rtt = sim::Time::milliseconds(args.rtt_ms);
  topo.bottleneck_buffer_bytes = args.buffer_kb * 1000;
  topo.bottleneck_queue = args.queue->second;
  net::Dumbbell dumbbell = net::build_dumbbell(rig.network(), topo);

  transport::TransportAgent& sender_host = rig.add_agent(dumbbell.senders[0]);
  rig.add_agent(dumbbell.receivers[0]);

  std::uint32_t bottleneck_drops = 0;
  dumbbell.bottleneck_forward->queue().set_drop_callback(
      [&](const net::Packet& p) {
        if (p.type == net::PacketType::data) ++bottleneck_drops;
      });
  // trace=1: every flow and link gets a flight-recorder tape, printed below.
  telemetry::Hub hub;
  if (args.trace) rig.install(&hub, nullptr, {});
  // loss=p: i.i.d. loss on the bottleneck through the fault layer, a
  // Gilbert-Elliott channel that never leaves its Good state.
  std::optional<netfault::FaultInjector> loss;
  if (args.loss > 0) {
    netfault::FaultConfig faults;
    faults.gilbert_elliott.loss_good = args.loss;
    faults.gilbert_elliott.p_good_to_bad = 0.0;
    loss.emplace(faults, sim::Random{args.seed * 13});
    dumbbell.bottleneck_forward->set_fault_hook(&*loss);
  }

  schemes::SchemeContext context;
  for (std::size_t i = 0; i < args.flows; ++i) {
    rig.start_at(sim::Time::milliseconds(args.gap_ms * static_cast<double>(i)),
                 sender_host, context,
                 exp::FlowSpec{args.scheme, dumbbell.receivers[0],
                               static_cast<net::FlowId>(i + 1), args.bytes});
  }
  rig.simulator().run_until(sim::Time::seconds(300));
  exp::RunRecord run;
  rig.finish(run);
  if (run.audit_violations > 0) {
    std::fprintf(stderr, "custom_scenario: invariant violations\n%s",
                 rig.auditor().report().c_str());
    return 1;
  }

  for (std::size_t i = 0; i < hub.recorder().tape_count(); ++i) {
    const telemetry::Tape& tape = hub.recorder().tape_at(i);
    if (tape.size() > 0) std::fputs(telemetry::render_tape(tape).c_str(), stdout);
  }

  std::printf("\nscenario: %s, %zu x %llu B, %.0f Mbps / %.0f ms RTT, %llu KB %s buffer, loss %.3f\n",
              schemes::name(args.scheme), args.flows,
              static_cast<unsigned long long>(args.bytes), args.rate_mbps,
              args.rtt_ms, static_cast<unsigned long long>(args.buffer_kb),
              args.queue->first, args.loss);
  stats::Summary fct;
  std::uint32_t retx = 0, proactive = 0, timeouts = 0;
  std::size_t completed = 0;
  for (std::size_t i = 0; i < args.flows; ++i) {
    const transport::SenderBase* flow = rig.started(i);
    if (flow == nullptr) continue;  // its start lies past the horizon
    const transport::FlowRecord& r = flow->record();
    if (flow->complete()) {
      ++completed;
      fct.add(r.fct().to_ms());
    }
    retx += r.normal_retx;
    proactive += r.proactive_retx;
    timeouts += r.timeouts;
  }
  std::printf("completed %zu/%zu flows\n", completed, args.flows);
  if (!fct.empty()) {
    std::printf("FCT: mean %.1f ms, median %.1f ms, max %.1f ms\n", fct.mean(),
                fct.median(), fct.max());
  }
  std::printf("normal retx %u, proactive retx %u, timeouts %u, bottleneck drops %u\n",
              retx, proactive, timeouts, bottleneck_drops);
  std::printf("simulated %llu events\n",
              static_cast<unsigned long long>(run.events_executed));
  return completed == args.flows ? 0 : 1;
}
