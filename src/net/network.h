// Network container: owns nodes and links, computes static routes.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/link.h"
#include "net/node.h"
#include "net/packet_pool.h"
#include "net/queue.h"
#include "sim/annotations.h"
#include "sim/data_rate.h"
#include "sim/simulator.h"

namespace halfback::net {

/// Parameters for one direction of a link.
struct LinkConfig {
  sim::DataRate rate;
  sim::Time delay;
  sim::Bytes queue_bytes = 150000;
  LossRate random_loss_rate;
  QueueKind queue_kind = QueueKind::drop_tail;
};

/// A pair of directed links forming a bidirectional connection.
struct LinkPair {
  Link* forward = nullptr;  ///< a -> b
  Link* reverse = nullptr;  ///< b -> a
};

/// Owns the topology for one simulation and computes shortest-path routes.
class Network {
 public:
  explicit Network(sim::Simulator& simulator) : simulator_{simulator} {}

  /// Create a node and return its id (ids are dense, starting at 0).
  NodeId add_node();

  /// Connect two nodes bidirectionally. `forward` configures a->b;
  /// `reverse` configures b->a.
  // HB_EFFECTS covers the overload set (the two-config overload below
  // forwards here): wiring allocates links and forks per-link RNG.
  LinkPair connect(NodeId a, NodeId b, const LinkConfig& forward,
                   const LinkConfig& reverse) HB_EFFECTS(alloc, rng);

  /// Symmetric convenience overload.
  LinkPair connect(NodeId a, NodeId b, const LinkConfig& both) {
    return connect(a, b, both, both);
  }

  /// Populate every node's routing table with shortest-hop routes.
  /// Must be called after the topology is final and before traffic starts.
  void compute_routes() HB_EFFECTS(alloc);

  Node& node(NodeId id) { return *nodes_.at(id); }
  const Node& node(NodeId id) const { return *nodes_.at(id); }
  std::size_t node_count() const { return nodes_.size(); }

  sim::Simulator& simulator() { return simulator_; }

  /// All links, for statistics sweeps.
  const std::vector<std::unique_ptr<Link>>& links() const { return links_; }

  /// Total packets dropped by all queues in the network.
  std::uint64_t total_queue_drops() const;

  /// Install `auditor` on the simulator, every existing link's queue, and
  /// every link created afterwards, and register each link with it. Call
  /// before traffic starts so the auditor's shadow accounting is complete.
  /// The auditor is owned by the caller and must outlive the run.
  void install_auditor(audit::Auditor& auditor);

 private:
  Link* make_link(NodeId from, NodeId to, const LinkConfig& config);

  sim::Simulator& simulator_;
  // Declared before links_ so it outlives them: queued PacketEvents cancel
  // themselves out of the event queue when the pool's slab destructs.
  PacketPool pool_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<Link>> links_;
  struct Edge {
    NodeId from;
    NodeId to;
  };
  std::vector<Edge> edges_;
};

}  // namespace halfback::net
