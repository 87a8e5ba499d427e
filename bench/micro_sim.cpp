// Microbenchmarks of the simulation substrate (google-benchmark): event
// queue throughput, link forwarding, and end-to-end flow simulation cost.
// These bound how large the figure campaigns can be scaled.
//
// `--json=FILE` switches to a self-contained perf-smoke mode that measures
// the two hot-loop rates the ROADMAP tracks — event dispatch and per-hop
// packet forwarding — and writes them as JSON. BENCH_micro_sim.json at the
// repo root records the committed trajectory; CI re-runs this mode and
// diffs against it (report-only).
#include <benchmark/benchmark.h>

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exp/emulab.h"
#include "net/topology.h"
#include "transport/receiver.h"
#include "schemes/factory.h"
#include "sim/dispatch_profiler.h"
#include "sim/function_ref.h"
#include "sim/simulator.h"
#include "sim/timer.h"
#include "telemetry/hub.h"
#include "transport/agent.h"

namespace {

using namespace halfback;
using namespace halfback::sim::literals;

void BM_EventQueueScheduleRun(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator simulator{1};
    for (int i = 0; i < n; ++i) {
      simulator.schedule(sim::Time::microseconds(i % 1000), [] {});
    }
    simulator.run();
    benchmark::DoNotOptimize(simulator.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1000)->Arg(100000);

void BM_EventCancellation(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator simulator{1};
    std::vector<sim::EventHandle> handles;
    handles.reserve(10000);
    for (int i = 0; i < 10000; ++i) {
      handles.push_back(simulator.schedule(sim::Time::microseconds(i), [] {}));
    }
    for (std::size_t i = 0; i < handles.size(); i += 2) handles[i].cancel();
    simulator.run();
    benchmark::DoNotOptimize(simulator.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EventCancellation);

void BM_TimerRearmFire(benchmark::State& state) {
  // Steady-state timer churn through the intrusive core: each fire re-arms
  // in place, so the whole loop is allocation-free after setup.
  const auto n = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulator simulator{1};
    std::uint64_t fired = 0;
    sim::Timer timer;
    auto rearm = [&] {
      if (++fired < n) timer.schedule_after(sim::Time::microseconds(5));
    };
    timer.bind(simulator, rearm);
    timer.schedule_after(sim::Time::microseconds(5));
    simulator.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_TimerRearmFire)->Arg(100000);

void BM_LinkForwarding(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator simulator{1};
    net::Network network{simulator};
    net::NodeId a = network.add_node();
    net::NodeId b = network.add_node();
    net::LinkConfig link;
    link.rate = sim::DataRate::gigabits_per_second(10);
    link.delay = 1_ms;
    network.connect(a, b, link);
    network.compute_routes();
    network.node(b).set_local_handler([](net::Packet) {});
    for (int i = 0; i < 1000; ++i) {
      net::Packet p;
      p.type = net::PacketType::data;
      p.src = a;
      p.dst = b;
      p.size_bytes = 1500;
      network.node(a).send(p);
    }
    simulator.run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_LinkForwarding);

void BM_FlowSimulation(benchmark::State& state) {
  const auto scheme = static_cast<schemes::Scheme>(state.range(0));
  for (auto _ : state) {
    sim::Simulator simulator{1};
    net::Network network{simulator};
    net::DumbbellConfig dc;
    dc.sender_count = 1;
    dc.receiver_count = 1;
    net::Dumbbell dumbbell = net::build_dumbbell(network, dc);
    transport::TransportAgent sender_agent{simulator, network, dumbbell.senders[0]};
    transport::TransportAgent receiver_agent{simulator, network, dumbbell.receivers[0]};
    schemes::SchemeContext context;
    auto sender = schemes::make_sender(scheme, context, simulator,
                                       network.node(dumbbell.senders[0]),
                                       dumbbell.receivers[0], 1, 100'000);
    sender_agent.start_flow(std::move(sender));
    simulator.run();
    benchmark::DoNotOptimize(simulator.events_executed());
  }
  state.SetLabel(schemes::name(scheme));
}
BENCHMARK(BM_FlowSimulation)
    ->Arg(static_cast<int>(schemes::Scheme::tcp))
    ->Arg(static_cast<int>(schemes::Scheme::jumpstart))
    ->Arg(static_cast<int>(schemes::Scheme::halfback));

void BM_ScoreboardAckProcessing(benchmark::State& state) {
  using namespace halfback::transport;
  for (auto _ : state) {
    Scoreboard sb{97};
    std::uint64_t uid = 1;
    for (std::uint32_t s = 0; s < 97; ++s) {
      sb.on_sent(s, uid++, sim::Time::milliseconds(1), false);
    }
    // ACK stream with a SACK hole pattern, plus loss detection per ACK.
    for (std::uint32_t cum = 0; cum < 97; cum += 2) {
      sb.apply_ack(cum, {{cum + 2, cum + 4}});
      benchmark::DoNotOptimize(sb.detect_losses());
      benchmark::DoNotOptimize(sb.pipe());
    }
  }
  state.SetItemsProcessed(state.iterations() * 48);
}
BENCHMARK(BM_ScoreboardAckProcessing);

void BM_ReceiverReassembly(benchmark::State& state) {
  using namespace halfback::transport;
  for (auto _ : state) {
    sim::Simulator simulator{1};
    net::Network network{simulator};
    net::NodeId a = network.add_node();
    net::NodeId b = network.add_node();
    net::LinkConfig link;
    link.rate = sim::DataRate::gigabits_per_second(10);
    link.delay = sim::Time::microseconds(10);
    network.connect(a, b, link);
    network.compute_routes();
    network.node(a).set_local_handler([](net::Packet) {});
    Receiver receiver{simulator, network.node(b), a, 1};
    network.node(b).set_local_handler(
        [&receiver](net::Packet p) { receiver.on_packet(p); });
    // Out-of-order arrival pattern stressing SACK-run bookkeeping.
    for (std::uint32_t s = 0; s < 500; ++s) {
      net::Packet p;
      p.flow = 1;
      p.type = net::PacketType::data;
      p.src = a;
      p.dst = b;
      p.seq = (s % 2 == 0) ? s : 500 + s;
      p.total_segments = 1500;
      p.size_bytes = 1500;
      p.uid = s + 1;
      network.node(a).send(p);
    }
    simulator.run();
    benchmark::DoNotOptimize(receiver.stats().unique_segments);
  }
  state.SetItemsProcessed(state.iterations() * 500);
}
BENCHMARK(BM_ReceiverReassembly);

void BM_UtilizationSweepCell(benchmark::State& state) {
  // The cost of one sweep cell (a full EmulabRunner run) — what bounds the
  // figure campaigns.
  for (auto _ : state) {
    exp::EmulabRunner::Config config;
    exp::EmulabRunner runner{config};
    sim::Random rng{1};
    workload::ScheduleConfig sc;
    sc.target_utilization = 0.5;
    sc.duration = sim::Time::seconds(5);
    auto schedule =
        workload::make_schedule(workload::FlowSizeDist::fixed(100'000), sc, rng);
    exp::RunResult run = runner.run(
        {exp::WorkloadPart{schemes::Scheme::halfback, schedule,
                           exp::FlowRole::primary, {}}});
    benchmark::DoNotOptimize(run.flows.size());
  }
}
BENCHMARK(BM_UtilizationSweepCell);

// --- perf-smoke JSON mode ---------------------------------------------------

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// One of measure_events_per_sec's recurring timers: re-arms itself one
/// period ahead until the shared fire budget is spent.
struct RecurringTimer {
  sim::Timer timer;
  sim::Time period;
  std::uint64_t* fired = nullptr;
  std::uint64_t budget = 0;

  void fire() {
    if (++*fired < budget) timer.schedule_after(period);
  }
};

/// Event-engine throughput through the heap: a population of 512 recurring
/// timers, each re-arming itself 1-97 us ahead from its own callback — the
/// access pattern of retransmission timers, pacers and probe ticks. Every
/// deadline here is a whole microsecond and hundreds are pending, so a
/// re-arm is almost never strictly earlier than everything pending: nearly
/// every event takes the heap path and the queue's front slot stays empty.
/// Real runs are the other way round: on the perfbench workloads 55-73% of
/// schedules are earlier than everything pending (a serialization-done, a
/// packet's next hop) and skip the heap, which is the pattern
/// measure_packets_per_sec exercises. (The seed measured this workload
/// through its std::function re-schedule chains, the only API it had;
/// BENCH_micro_sim.json records that number as the baseline.) Returns
/// timer fires/second of wall time (best of `reps` to damp scheduler
/// noise).
double measure_events_per_sec(int reps, telemetry::Hub* hub = nullptr,
                              sim::DispatchProfiler* profiler = nullptr,
                              std::uint64_t fires = 1'000'000) {
  constexpr int kTimers = 512;
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    sim::Simulator simulator{1};
    if (hub != nullptr) simulator.set_telemetry(hub);
    if (profiler != nullptr) simulator.set_profiler(profiler);
    std::uint64_t fired = 0;
    std::vector<std::unique_ptr<RecurringTimer>> timers;
    timers.reserve(kTimers);
    for (int i = 0; i < kTimers; ++i) {
      RecurringTimer& t = *timers.emplace_back(std::make_unique<RecurringTimer>());
      t.period = sim::Time::microseconds(1 + i % 97);
      t.fired = &fired;
      t.budget = fires;
      t.timer.bind(simulator,
                   sim::FunctionRef<void()>::from<&RecurringTimer::fire>(t));
    }
    const auto t0 = std::chrono::steady_clock::now();
    for (const auto& t : timers) t->timer.schedule_after(t->period);
    simulator.run();
    const double elapsed = seconds_since(t0);
    benchmark::DoNotOptimize(simulator.events_executed());
    if (elapsed > 0.0) {
      best = std::max(best, static_cast<double>(fired) / elapsed);
    }
  }
  return best;
}

/// Per-hop packet cost through the full net path (queue + serialization +
/// propagation events). Returns delivered packets/second of wall time (best
/// of `reps`).
double measure_packets_per_sec(int reps) {
  constexpr int kWaves = 50;
  constexpr int kPacketsPerWave = 1000;
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    sim::Simulator simulator{1};
    net::Network network{simulator};
    net::NodeId a = network.add_node();
    net::NodeId b = network.add_node();
    net::LinkConfig link;
    link.rate = sim::DataRate::gigabits_per_second(10);
    link.delay = 1_ms;
    network.connect(a, b, link);
    network.compute_routes();
    std::uint64_t delivered = 0;
    network.node(b).set_local_handler([&](net::Packet) { ++delivered; });
    const auto t0 = std::chrono::steady_clock::now();
    for (int w = 0; w < kWaves; ++w) {
      for (int i = 0; i < kPacketsPerWave; ++i) {
        net::Packet p;
        p.type = net::PacketType::data;
        p.src = a;
        p.dst = b;
        p.seq = static_cast<std::uint32_t>(i);
        p.size_bytes = 1500;
        p.uid = static_cast<std::uint64_t>(w) * kPacketsPerWave + i + 1;
        network.node(a).send(std::move(p));
      }
      simulator.run();
    }
    const double elapsed = seconds_since(t0);
    if (elapsed > 0.0 && delivered > 0) {
      best = std::max(best, static_cast<double>(delivered) / elapsed);
    }
  }
  return best;
}

/// Transport-stack throughput for one scheme: the full sender pipeline —
/// demux, wire dedup, scoreboard, scheme policy, receiver reassembly, ACK
/// clocking — on a fat short-RTT dumbbell so per-packet CPU cost, not
/// simulated bandwidth, bounds the rate. 64 flows of the paper's 100 kB
/// short-flow size all start at t=0, so the bottleneck queue overflows and
/// every recovery path (SACK holes, RTO, scheme-specific retransmission)
/// runs too. Returns transport-delivered packets (data + SYN at the
/// receiver agent, ACKs + SYN-ACK at the sender agent) per second of wall
/// time, best of `reps`.
double measure_scheme_packets_per_sec(schemes::Scheme scheme, int reps) {
  constexpr int kFlows = 64;
  constexpr sim::Bytes kBytes = 100'000;
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    sim::Simulator simulator{1};
    net::Network network{simulator};
    net::DumbbellConfig dc;
    dc.sender_count = 1;
    dc.receiver_count = 1;
    dc.access_rate = sim::DataRate::gigabits_per_second(10);
    dc.bottleneck_rate = sim::DataRate::gigabits_per_second(1);
    dc.rtt = sim::Time::milliseconds(4);
    net::Dumbbell dumbbell = net::build_dumbbell(network, dc);
    transport::TransportAgent sender_agent{simulator, network,
                                           dumbbell.senders[0]};
    transport::TransportAgent receiver_agent{simulator, network,
                                             dumbbell.receivers[0]};
    schemes::SchemeContext context;
    const auto t0 = std::chrono::steady_clock::now();
    for (int f = 0; f < kFlows; ++f) {
      auto sender = schemes::make_sender(
          scheme, context, simulator, network.node(dumbbell.senders[0]),
          dumbbell.receivers[0], static_cast<net::FlowId>(f + 1), kBytes);
      sender_agent.start_flow(std::move(sender));
    }
    simulator.run();
    const double elapsed = seconds_since(t0);
    const std::uint64_t delivered = sender_agent.delivery_stats().accepted +
                                    receiver_agent.delivery_stats().accepted;
    benchmark::DoNotOptimize(delivered);
    if (elapsed > 0.0 && delivered > 0) {
      best = std::max(best, static_cast<double>(delivered) / elapsed);
    }
  }
  return best;
}

std::uint64_t peak_rss_bytes() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  // Linux reports ru_maxrss in kilobytes.
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;
}

int run_json_mode(const char* path) {
  const double events = measure_events_per_sec(/*reps=*/5);
  const double packets = measure_packets_per_sec(/*reps=*/5);
  // Per-scheme transport throughput: the paper's eight-way evaluation set,
  // each through the full sender pipeline. This is the number the static
  // sender pipeline (compile-time transport specialization) moves; the
  // link-forwarding packets_per_sec above deliberately contains no
  // transport code and tracks the PR-2 event/packet core instead.
  std::vector<std::pair<const char*, double>> scheme_rates;
  double transport_sum = 0.0;
  for (const schemes::Scheme scheme : schemes::evaluation_set()) {
    const double rate = measure_scheme_packets_per_sec(scheme, /*reps=*/3);
    scheme_rates.emplace_back(schemes::name(scheme), rate);
    transport_sum += rate;
  }
  const double transport_mean =
      scheme_rates.empty() ? 0.0 : transport_sum / scheme_rates.size();
  const std::uint64_t rss = peak_rss_bytes();
  std::FILE* out = std::strcmp(path, "-") == 0 ? stdout : std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "micro_sim: cannot open %s for writing\n", path);
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"events_per_sec\": %.0f,\n"
               "  \"packets_per_sec\": %.0f,\n"
               "  \"transport_packets_per_sec\": %.0f,\n"
               "  \"transport_packets_per_sec_by_scheme\": {\n",
               events, packets, transport_mean);
  for (std::size_t i = 0; i < scheme_rates.size(); ++i) {
    std::fprintf(out, "    \"%s\": %.0f%s\n", scheme_rates[i].first,
                 scheme_rates[i].second,
                 i + 1 < scheme_rates.size() ? "," : "");
  }
  std::fprintf(out,
               "  },\n"
               "  \"peak_rss_bytes\": %llu\n"
               "}\n",
               static_cast<unsigned long long>(rss));
  if (out != stdout) {
    std::fclose(out);
    std::printf(
        "events_per_sec=%.0f packets_per_sec=%.0f "
        "transport_packets_per_sec=%.0f peak_rss_bytes=%llu\n",
        events, packets, transport_mean, static_cast<unsigned long long>(rss));
  }
  return 0;
}

/// Telemetry-overhead mode: the same recurring-timer hot loop, with and
/// without a telemetry::Hub installed on the simulator. The disabled
/// configuration runs the no-observer dispatch loop instantiation (its
/// cost must be the pre-telemetry core's); the enabled one pays one
/// high-water compare per event. Acceptance: enabled stays within 3% of
/// disabled. Best-of-reps on both sides damps
/// scheduler noise; interleaving reps would be better statistics, but
/// best-of already discards the slow tail.
int run_telemetry_json_mode(const char* path) {
  // "full": hub plus the in-sim cost profiler, i.e. the hub+profiler
  // dispatch loop instantiation with a per-event type probe and sampled
  // cycle attribution — the everything-on observability configuration.
  // Tracks, tapes and spans are owned by the same hub; this loop has no
  // flows or links, so their cost shows up in the chaos/emulab gates
  // instead, where it is a null test per transition plus the track's
  // counter, tape-slot and span stores (a tape indexes its ring by mask).
  //
  // The three configurations are measured interleaved, one short rep each
  // per round, and the gate compares the per-config *maximum* rate across
  // all rounds. Scheduler noise is one-sided — contention only ever slows
  // a measurement down — so the max is each config's cleanest window, and
  // spreading many short rounds over tens of seconds means every config
  // sees storm-free windows even on a busy host. A real regression slows
  // the clean windows too, so it still trips the gate. Sequential
  // per-config blocks would instead charge machine-speed drift to
  // whichever config ran last (the budget is 3%; container run-to-run
  // noise alone exceeds that).
  constexpr int kRounds = 25;
  constexpr std::uint64_t kRoundFires = 200'000;
  telemetry::Hub hub;
  telemetry::Hub full_hub;
  sim::DispatchProfiler profiler;
  measure_events_per_sec(/*reps=*/1);  // warm caches and the allocator
  double disabled = 0.0;
  double enabled = 0.0;
  double full = 0.0;
  for (int round = 0; round < kRounds; ++round) {
    disabled = std::max(
        disabled, measure_events_per_sec(/*reps=*/1, nullptr, nullptr,
                                         kRoundFires));
    enabled = std::max(
        enabled, measure_events_per_sec(/*reps=*/1, &hub, nullptr,
                                        kRoundFires));
    full = std::max(full, measure_events_per_sec(/*reps=*/1, &full_hub,
                                                 &profiler, kRoundFires));
  }
  const double overhead =
      disabled > 0.0 ? (disabled - enabled) / disabled : 0.0;
  const double overhead_full =
      disabled > 0.0 ? (disabled - full) / disabled : 0.0;
  const bool pass = overhead <= 0.03 && overhead_full <= 0.03;
  std::FILE* out = std::strcmp(path, "-") == 0 ? stdout : std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "micro_sim: cannot open %s for writing\n", path);
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"events_per_sec_disabled\": %.0f,\n"
               "  \"events_per_sec_enabled\": %.0f,\n"
               "  \"events_per_sec_full\": %.0f,\n"
               "  \"overhead_fraction\": %.4f,\n"
               "  \"overhead_fraction_full\": %.4f,\n"
               "  \"budget_fraction\": 0.03,\n"
               "  \"pass\": %s\n"
               "}\n",
               disabled, enabled, full, overhead, overhead_full,
               pass ? "true" : "false");
  if (out != stdout) {
    std::fclose(out);
    std::printf(
        "telemetry overhead: disabled=%.0f enabled=%.0f full=%.0f events/s "
        "(%.2f%% / %.2f%% with profiler) %s\n",
        disabled, enabled, full, overhead * 100.0, overhead_full * 100.0,
        pass ? "PASS" : "FAIL");
  }
  return pass ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      return run_json_mode(argv[i] + 7);
    }
    if (std::strncmp(argv[i], "--telemetry-json=", 17) == 0) {
      return run_telemetry_json_mode(argv[i] + 17);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
