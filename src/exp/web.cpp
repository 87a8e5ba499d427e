#include "exp/web.h"

#include <algorithm>
#include <functional>
#include <memory>

#include "net/topology.h"

namespace halfback::exp {

namespace {

constexpr std::size_t kMaxConnections = 6;
constexpr auto kDrain = sim::Time::seconds(30);

/// Live state of one in-flight page request.
struct PageState {
  const workload::WebPage* page = nullptr;
  std::size_t pair = 0;
  std::size_t next_object = 0;
  std::size_t completed_objects = 0;
  PageResult result;
  /// Per-page flow-completion handler. Every flow of this page hands the
  /// agent a FunctionRef to this one callable: the reference needs a
  /// referent that outlives the flow, and the page does (one allocation
  /// per page, none per flow).
  std::function<void(const transport::FlowRecord&)> on_flow_complete;
};

}  // namespace

double WebRunOutcome::mean_response_s() const {
  if (pages.empty()) return 0.0;
  double total = 0.0;
  for (const PageResult& p : pages) total += p.response_time().to_seconds();
  return total / static_cast<double>(pages.size());
}

std::size_t WebRunOutcome::unfinished_pages() const {
  std::size_t n = 0;
  for (const PageResult& p : pages) n += p.finished ? 0 : 1;
  return n;
}

WebRunOutcome WebRunner::run(schemes::Scheme scheme,
                             const workload::WebsiteCatalog& catalog,
                             const std::vector<workload::WebRequest>& requests) {
  Rig rig{seed_};
  net::Dumbbell dumbbell = net::build_dumbbell(rig.network(), net::DumbbellConfig{});
  // Agents 0..pair_count-1 are the servers; the clients follow.
  for (net::NodeId id : dumbbell.senders) rig.add_agent(id);
  for (net::NodeId id : dumbbell.receivers) rig.add_agent(id);
  const std::size_t pair_count = dumbbell.senders.size();

  schemes::SchemeContext context;

  std::vector<std::unique_ptr<PageState>> pages;
  net::FlowId next_flow = 1;

  // Launch the next object of `state` on one connection "lane"; the lane
  // continues with further objects as each flow completes.
  std::function<void(PageState&)> launch_next = [&](PageState& state) {
    if (state.next_object >= state.page->object_bytes.size()) return;
    const std::uint64_t bytes = state.page->object_bytes[state.next_object++];
    rig.start(rig.agent(state.pair), context,
              FlowSpec{scheme, dumbbell.receivers[state.pair], next_flow++, bytes},
              transport::SenderBase::CompletionRef{state.on_flow_complete});
  };

  sim::Simulator& simulator = rig.simulator();
  auto on_object_complete = [&](PageState& state) {
    ++state.completed_objects;
    if (state.completed_objects == state.page->object_bytes.size()) {
      state.result.finished = true;
      state.result.completed = simulator.now();
      return;
    }
    if (state.completed_objects == 1) {
      // HTML delivered: open the concurrent subresource lanes.
      const auto lanes =
          std::min(kMaxConnections, state.page->object_bytes.size() - 1);
      for (std::size_t lane = 0; lane < lanes; ++lane) launch_next(state);
    } else {
      launch_next(state);  // this lane takes the next object
    }
  };

  sim::Time last_request;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const workload::WebRequest& req = requests[i];
    last_request = std::max(last_request, req.at);
    auto state = std::make_unique<PageState>();
    state->page = &catalog.page(req.page_index);
    state->pair = i % pair_count;
    state->result.requested = req.at;
    state->result.objects = state->page->object_bytes.size();
    state->result.bytes = state->page->total_bytes();
    PageState* raw = state.get();
    raw->on_flow_complete = [&, raw](const transport::FlowRecord&) {
      on_object_complete(*raw);
    };
    pages.push_back(std::move(state));
    // Browser behaviour: the HTML document is fetched first on a single
    // connection; the subresource lanes open once it arrives. Flow ids are
    // assigned as objects start, so the request is a plain event rather
    // than a Rig::start_at.
    simulator.schedule_at(req.at, [&, raw] { launch_next(*raw); });
  }

  simulator.run_until(last_request + kDrain);

  WebRunOutcome outcome;
  rig.finish(outcome);
  outcome.pages.reserve(pages.size());
  for (const auto& page : pages) {
    PageResult r = page->result;
    if (!r.finished) r.completed = outcome.sim_end;  // censored
    outcome.pages.push_back(r);
  }

  double fct = 0, timeouts = 0, normal = 0, proactive = 0;
  std::size_t flows = 0;
  for (std::size_t server = 0; server < pair_count; ++server) {
    for (const transport::FlowRecord& record : rig.agent(server).completed()) {
      ++flows;
      fct += record.fct().to_ms();
      timeouts += record.timeouts;
      normal += record.normal_retx;
      proactive += record.proactive_retx;
    }
  }
  if (flows > 0) {
    outcome.flow_stats.flows = flows;
    outcome.flow_stats.mean_fct_ms = fct / static_cast<double>(flows);
    outcome.flow_stats.mean_timeouts = timeouts / static_cast<double>(flows);
    outcome.flow_stats.mean_normal_retx = normal / static_cast<double>(flows);
    outcome.flow_stats.mean_proactive_retx = proactive / static_cast<double>(flows);
  }
  return outcome;
}

}  // namespace halfback::exp
