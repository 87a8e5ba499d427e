#include "exp/trace.h"

#include "net/topology.h"
#include "sim/bytes.h"
#include "sim/timer.h"

namespace halfback::exp {

namespace {
constexpr sim::Bytes kShortBytes = 100'000;
constexpr sim::Bytes kBackgroundBytes = 20'000'000;
constexpr auto kShortStart = sim::Time::seconds(1);
constexpr auto kBucket = sim::Time::milliseconds(60);
constexpr auto kDuration = sim::Time::seconds(4);
}  // namespace

const char* to_string(TraceScenario scenario) {
  switch (scenario) {
    case TraceScenario::optimal: return "optimal";
    case TraceScenario::halfback: return "halfback";
    case TraceScenario::single_tcp: return "single-tcp";
    case TraceScenario::two_tcp_halves: return "two-tcp-halves";
  }
  return "?";
}

TraceResult run_trace(std::uint64_t seed, TraceScenario scenario) {
  Rig rig{seed};
  net::Dumbbell dumbbell = net::build_dumbbell(rig.network(), net::DumbbellConfig{});
  // Agents 0..pairs-1 send, pairs..2*pairs-1 receive.
  for (net::NodeId id : dumbbell.senders) rig.add_agent(id);
  for (net::NodeId id : dumbbell.receivers) rig.add_agent(id);
  const std::size_t pairs = dumbbell.senders.size();

  schemes::SchemeContext context;

  struct Tracked {
    std::string label;
    net::FlowId flow;
    std::size_t pair = 0;
    /// Unique bytes delivered per bucket, up to the last bucket with any.
    std::vector<std::uint64_t> bucket_bytes;
    std::uint32_t seen_segments = 0;
    std::size_t start = 0;  ///< Rig::start_at index
  };
  std::vector<Tracked> tracked;

  auto start_flow = [&](const std::string& label, schemes::Scheme scheme,
                        std::uint64_t bytes, std::size_t pair, sim::Time at,
                        std::uint32_t burst_window) {
    const auto flow = static_cast<net::FlowId>(tracked.size() + 1);
    const std::size_t start = rig.start_at(
        at, rig.agent(pair), context,
        FlowSpec{scheme, dumbbell.receivers[pair], flow, bytes, burst_window});
    tracked.push_back(Tracked{label, flow, pair, {}, 0, start});
  };

  // Background TCP flow on pair 0 from t=0.
  start_flow("background", schemes::Scheme::tcp, kBackgroundBytes, 0,
             sim::Time::zero(), 0);

  switch (scenario) {
    case TraceScenario::optimal:
      // "Optimal": the whole flow leaves in one immediate burst (an ICW
      // covering the flow), the best a sender-side scheme could do.
      start_flow("short-optimal", schemes::Scheme::tcp, kShortBytes, 1,
                 kShortStart, /*burst_window=*/97);
      break;
    case TraceScenario::halfback:
      start_flow("short-halfback", schemes::Scheme::halfback, kShortBytes, 1,
                 kShortStart, 0);
      break;
    case TraceScenario::single_tcp:
      start_flow("short-tcp", schemes::Scheme::tcp, kShortBytes, 1,
                 kShortStart, 0);
      break;
    case TraceScenario::two_tcp_halves:
      start_flow("short-tcp-1", schemes::Scheme::tcp, kShortBytes / 2, 1,
                 kShortStart, 0);
      start_flow("short-tcp-2", schemes::Scheme::tcp, kShortBytes / 2, 2,
                 kShortStart, 0);
      break;
  }

  // Sample receiver progress every bucket, on one reusable timer.
  sim::Simulator& simulator = rig.simulator();
  sim::Timer sampler;
  auto sample = [&] {
    // Attribute to the bucket that just ended.
    const auto ended = static_cast<std::size_t>(
        (simulator.now() - kBucket).ns() / kBucket.ns());
    for (Tracked& t : tracked) {
      transport::Receiver* r = rig.agent(pairs + t.pair).receiver(t.flow);
      if (r == nullptr) continue;
      const std::uint32_t now_segments = r->stats().unique_segments;
      if (now_segments > t.seen_segments) {
        if (t.bucket_bytes.size() <= ended) t.bucket_bytes.resize(ended + 1);
        t.bucket_bytes[ended] +=
            static_cast<std::uint64_t>(now_segments - t.seen_segments) *
            net::kSegmentPayloadBytes;
        t.seen_segments = now_segments;
      }
    }
    if (simulator.now() < kDuration) {
      sampler.schedule_after(kBucket);
    }
  };
  sampler.bind(simulator, sample);
  sampler.schedule_after(kBucket);

  simulator.run_until(kDuration);

  TraceResult result;
  rig.finish(result);
  const double bucket_seconds = kBucket.to_seconds();
  for (const Tracked& t : tracked) {
    FlowTrace ft;
    ft.label = t.label;
    for (std::size_t i = 0; i < t.bucket_bytes.size(); ++i) {
      const double bytes = static_cast<double>(t.bucket_bytes[i]);
      ft.throughput.push_back({kBucket * static_cast<double>(i),
                               bytes * 8.0 / bucket_seconds / 1e6});
    }
    const transport::SenderBase* sender = rig.started(t.start);
    if (sender != nullptr && sender->complete()) {
      ft.completion = sender->record().completion_time;
    }
    result.flows.push_back(std::move(ft));
  }
  return result;
}

}  // namespace halfback::exp
