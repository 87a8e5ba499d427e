// A network node: host or router.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "net/packet.h"
#include "sim/annotations.h"

namespace halfback::net {

class Link;

/// A node forwards packets by destination using a static routing table and
/// delivers locally-addressed packets to its attached protocol stack.
/// Hosts and routers are the same class; hosts just have a local handler.
class Node {
 public:
  explicit Node(NodeId id) : id_{id} {}

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeId id() const { return id_; }

  /// Attach the egress link toward a directly-connected neighbor.
  void add_egress(NodeId neighbor, Link* link);

  /// Install a route: packets for `dest` leave via `next_hop`.
  void set_route(NodeId dest, NodeId next_hop);

  /// Protocol stack entry point for packets addressed to this node.
  void set_local_handler(std::function<void(Packet)> handler) {
    local_handler_ = std::move(handler);
  }
  /// Currently-installed handler (empty if none) — lets taps chain.
  const std::function<void(Packet)>& local_handler() const { return local_handler_; }

  /// A packet arriving at this node (from a link or the local stack).
  void handle(Packet p);

  /// Send a locally-originated packet.
  void send(Packet p) HB_EFFECTS(alloc, throw) { handle(std::move(p)); }

 private:
  /// Rebuild the forwarding-cache entry for `dest` from routes_ + egress_.
  void refresh_forward(NodeId dest);

  NodeId id_;
  std::unordered_map<NodeId, Link*> egress_;
  std::unordered_map<NodeId, NodeId> routes_;
  /// Destination-indexed forwarding cache: node ids are small and dense
  /// (Network hands them out sequentially), so the per-hop lookup is one
  /// array load instead of two hash probes. nullptr marks "no resolved
  /// route"; handle() falls back to the maps there to raise the precise
  /// misconfiguration error.
  std::vector<Link*> forward_;
  std::function<void(Packet)> local_handler_;
};

}  // namespace halfback::net
