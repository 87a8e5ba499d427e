#include "schemes/factory.h"

#include <stdexcept>

#include "schemes/jumpstart.h"
#include "schemes/pcp.h"
#include "schemes/proactive.h"
#include "schemes/rc3.h"
#include "schemes/reactive.h"
#include "transport/tcp_sender.h"

namespace halfback::schemes {

std::unique_ptr<transport::SenderBase> make_sender(
    Scheme scheme, SchemeContext& context, sim::Simulator& simulator,
    net::Node& local_node, net::NodeId peer, net::FlowId flow,
    sim::Bytes flow_bytes) {
  transport::SenderConfig config = context.sender_config;
  switch (scheme) {
    case Scheme::tcp:
      return std::make_unique<transport::TcpSender>(
          simulator, local_node, peer, flow, flow_bytes, config, "tcp");
    case Scheme::tcp10:
      config.initial_window = 10;
      return std::make_unique<transport::TcpSender>(
          simulator, local_node, peer, flow, flow_bytes, config, "tcp10");
    case Scheme::tcp_cache: {
      if (!context.path_cache) {
        context.path_cache = std::make_shared<PathCache>();
      }
      return std::make_unique<TcpCacheSender>(simulator, local_node, peer, flow,
                                              flow_bytes, config, context.path_cache);
    }
    case Scheme::reactive:
      return std::make_unique<ReactiveSender>(simulator, local_node, peer, flow,
                                              flow_bytes, config);
    case Scheme::proactive:
      return std::make_unique<ProactiveSender>(simulator, local_node, peer, flow,
                                               flow_bytes, config);
    case Scheme::jumpstart:
      return std::make_unique<JumpStartSender>(simulator, local_node, peer, flow,
                                               flow_bytes, config);
    case Scheme::pcp:
      return std::make_unique<PcpSender>(simulator, local_node, peer, flow,
                                         flow_bytes, config);
    case Scheme::halfback:
      return std::make_unique<HalfbackSender>(
          simulator, local_node, peer, flow, flow_bytes, config,
          context.halfback_config, HalfbackSender::Order::reverse,
          HalfbackSender::RetxRate::ack_clocked, "halfback");
    case Scheme::halfback_forward:
      return std::make_unique<HalfbackSender>(
          simulator, local_node, peer, flow, flow_bytes, config,
          context.halfback_config, HalfbackSender::Order::forward,
          HalfbackSender::RetxRate::ack_clocked, "halfback-forward");
    case Scheme::rc3:
      return std::make_unique<Rc3Sender>(simulator, local_node, peer, flow,
                                         flow_bytes, config);
    case Scheme::halfback_burst:
      return std::make_unique<HalfbackSender>(
          simulator, local_node, peer, flow, flow_bytes, config,
          context.halfback_config, HalfbackSender::Order::reverse,
          HalfbackSender::RetxRate::line_rate, "halfback-burst");
  }
  throw std::invalid_argument{"unknown scheme"};
}

std::unique_ptr<transport::SenderBase> make_optimal_sender(
    const SchemeContext& context, sim::Simulator& simulator,
    net::Node& local_node, net::NodeId peer, net::FlowId flow,
    sim::Bytes flow_bytes, std::uint32_t burst_window) {
  transport::SenderConfig config = context.sender_config;
  config.initial_window = burst_window;
  return std::make_unique<transport::TcpSender>(
      simulator, local_node, peer, flow, flow_bytes, config, "optimal");
}

}  // namespace halfback::schemes
