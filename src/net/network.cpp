#include "net/network.h"

#include <queue>
#include <utility>

#include "audit/auditor.h"

namespace halfback::net {

NodeId Network::add_node() {
  const auto id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(std::make_unique<Node>(id));
  return id;
}

Link* Network::make_link(NodeId from, NodeId to, const LinkConfig& config) {
  std::unique_ptr<PacketQueue> queue;
  switch (config.queue_kind) {
    case QueueKind::red:
      queue = std::make_unique<RedQueue>(config.queue_bytes,
                                         simulator_.random().fork(0xaedULL + to));
      break;
    case QueueKind::codel:
      queue = std::make_unique<CoDelQueue>(config.queue_bytes);
      break;
    case QueueKind::priority:
      queue = std::make_unique<PriorityQueue>(config.queue_bytes);
      break;
    case QueueKind::drop_tail:
      queue = std::make_unique<DropTailQueue>(config.queue_bytes);
      break;
  }
  auto link = std::make_unique<Link>(simulator_, config.rate, config.delay,
                                     std::move(queue), pool_, *nodes_.at(to),
                                     config.random_loss_rate);
  Link* raw = link.get();
  nodes_.at(from)->add_egress(to, raw);
  links_.push_back(std::move(link));
  edges_.push_back(Edge{from, to});
  if (audit::Auditor* auditor = simulator_.auditor()) {
    raw->queue().set_auditor(auditor);
    auditor->on_link_registered(*raw);
  }
  return raw;
}

void Network::install_auditor(audit::Auditor& auditor) {
  simulator_.set_auditor(&auditor);
  for (const auto& link : links_) {
    link->queue().set_auditor(&auditor);
    auditor.on_link_registered(*link);
  }
}

LinkPair Network::connect(NodeId a, NodeId b, const LinkConfig& forward,
                          const LinkConfig& reverse) {
  LinkPair pair;
  pair.forward = make_link(a, b, forward);
  pair.reverse = make_link(b, a, reverse);
  return pair;
}

void Network::compute_routes() {
  // Adjacency from the directed edge list.
  std::vector<std::vector<NodeId>> adjacency(nodes_.size());
  for (const Edge& e : edges_) adjacency[e.from].push_back(e.to);

  // BFS from every destination over reversed edges would be equivalent;
  // with our small topologies a BFS from every source is simplest.
  for (NodeId src = 0; src < nodes_.size(); ++src) {
    std::vector<NodeId> parent(nodes_.size(), src);
    std::vector<bool> visited(nodes_.size(), false);
    std::queue<NodeId> frontier;
    visited[src] = true;
    frontier.push(src);
    while (!frontier.empty()) {
      NodeId u = frontier.front();
      frontier.pop();
      for (NodeId v : adjacency[u]) {
        if (visited[v]) continue;
        visited[v] = true;
        parent[v] = u;
        frontier.push(v);
      }
    }
    for (NodeId dst = 0; dst < nodes_.size(); ++dst) {
      if (dst == src || !visited[dst]) continue;
      // Walk back from dst to find the first hop out of src.
      NodeId hop = dst;
      while (parent[hop] != src) hop = parent[hop];
      nodes_[src]->set_route(dst, hop);
    }
  }
}

std::uint64_t Network::total_queue_drops() const {
  std::uint64_t drops = 0;
  for (const auto& link : links_) drops += link->queue().stats().dropped_packets;
  return drops;
}

}  // namespace halfback::net
