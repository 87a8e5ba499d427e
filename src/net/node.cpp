#include "net/node.h"

#include <stdexcept>
#include <string>
#include <utility>

#include "net/link.h"

namespace halfback::net {

void Node::add_egress(NodeId neighbor, Link* link) {
  egress_[neighbor] = link;
  // Routes installed before their link existed now resolve; refresh them.
  for (const auto& [dest, next_hop] : routes_) {
    if (next_hop == neighbor) refresh_forward(dest);
  }
}

void Node::set_route(NodeId dest, NodeId next_hop) {
  routes_[dest] = next_hop;
  refresh_forward(dest);
}

void Node::refresh_forward(NodeId dest) {
  if (forward_.size() <= dest) forward_.resize(dest + 1, nullptr);
  Link* link = nullptr;
  auto route = routes_.find(dest);
  if (route != routes_.end()) {
    auto egress = egress_.find(route->second);
    if (egress != egress_.end()) link = egress->second;
  }
  forward_[dest] = link;
}

void Node::handle(Packet p) {
  if (p.dst == id_) {
    if (local_handler_) local_handler_(std::move(p));
    return;
  }
  if (p.dst < forward_.size()) {
    if (Link* link = forward_[p.dst]; link != nullptr) {
      link->send(std::move(p));
      return;
    }
  }
  // Unresolved destination: consult the maps to name the missing piece.
  auto route = routes_.find(p.dst);
  if (route == routes_.end()) {
    throw std::logic_error{"node " + std::to_string(id_) + " has no route to " +
                           std::to_string(p.dst)};
  }
  throw std::logic_error{"node " + std::to_string(id_) + " has no link to next hop " +
                         std::to_string(route->second)};
}

}  // namespace halfback::net
