// Construct a sender for any scheme.
#pragma once

#include <memory>

#include "net/network.h"
#include "sim/annotations.h"
#include "schemes/halfback.h"
#include "schemes/scheme.h"
#include "schemes/tcp_cache.h"
#include "transport/sender.h"

namespace halfback::schemes {

/// Everything a scheme may need beyond the per-flow parameters.
struct SchemeContext {
  transport::SenderConfig sender_config;  ///< shared transport knobs
  HalfbackConfig halfback_config;         ///< Halfback / ablation knobs
  std::shared_ptr<PathCache> path_cache;  ///< created on demand for TCP-Cache
};

/// Build a sender of the given scheme for one flow. `local_node` must be a
/// node of `network`; the caller hands the result to a TransportAgent.
std::unique_ptr<transport::SenderBase> make_sender(
    Scheme scheme, SchemeContext& context, sim::Simulator& simulator,
    net::Node& local_node, net::NodeId peer, net::FlowId flow,
    sim::Bytes flow_bytes) HB_EFFECTS(throw);

/// Build the "optimal" reference sender (Fig. 2's upper bound): plain TCP
/// whose initial window is forced to `burst_window` segments, so the whole
/// flow leaves in one immediate burst — the best any sender-side scheme
/// could do. Lives here so every sender in the tree, including the
/// comparison baselines, is constructed through this factory — the single
/// type-erased seam of the static pipeline.
std::unique_ptr<transport::SenderBase> make_optimal_sender(
    const SchemeContext& context, sim::Simulator& simulator,
    net::Node& local_node, net::NodeId peer, net::FlowId flow,
    sim::Bytes flow_bytes, std::uint32_t burst_window) HB_EFFECTS();

}  // namespace halfback::schemes
