#include "net/topology.h"

#include <stdexcept>

namespace halfback::net {

namespace {
constexpr auto kAccessDelay = sim::Time::microseconds(10);
/// Host-side links (the parking lot's access links and the access path's
/// server hop) run at 1 Gbps, and every host-side buffer holds 4 MB: fast
/// and deep enough never to be the bottleneck.
constexpr auto kHostRate = sim::DataRate::gigabits_per_second(1);
constexpr sim::Bytes kHostBufferBytes = 4u << 20;
constexpr sim::Bytes kParkingLotHopBufferBytes = 115'000;
}

Dumbbell build_dumbbell(Network& network, const DumbbellConfig& config) {
  if (config.sender_count <= 0 || config.receiver_count <= 0) {
    throw std::invalid_argument{"dumbbell needs at least one sender and receiver"};
  }
  Dumbbell d;
  d.config = config;
  d.left_router = network.add_node();
  d.right_router = network.add_node();

  // The RTT budget not consumed by the four access hops sits on the
  // bottleneck's propagation delay.
  sim::Time bottleneck_delay = config.rtt / 2.0 - 2.0 * kAccessDelay;
  if (bottleneck_delay < sim::Time::zero()) {
    throw std::invalid_argument{"dumbbell RTT too small for access delays"};
  }

  LinkConfig access;
  access.rate = config.access_rate;
  access.delay = kAccessDelay;
  access.queue_bytes = kHostBufferBytes;

  for (int i = 0; i < config.sender_count; ++i) {
    NodeId host = network.add_node();
    d.senders.push_back(host);
    network.connect(host, d.left_router, access);
  }
  for (int i = 0; i < config.receiver_count; ++i) {
    NodeId host = network.add_node();
    d.receivers.push_back(host);
    network.connect(host, d.right_router, access);
  }

  LinkConfig bottleneck;
  bottleneck.rate = config.bottleneck_rate;
  bottleneck.delay = bottleneck_delay;
  bottleneck.queue_bytes = config.bottleneck_buffer_bytes;
  bottleneck.queue_kind = config.bottleneck_queue;
  LinkPair pair = network.connect(d.left_router, d.right_router, bottleneck);
  d.bottleneck_forward = pair.forward;
  d.bottleneck_reverse = pair.reverse;

  network.compute_routes();
  return d;
}

AccessPath build_access_path(Network& network, const AccessPathConfig& config) {
  AccessPath path;
  path.config = config;
  path.server = network.add_node();
  path.router = network.add_node();
  path.client = network.add_node();

  // Most of the propagation delay lives on the wide-area (server<->router)
  // segment; the access hop is short.
  sim::Time wan_delay = config.rtt / 2.0 - kAccessDelay;
  if (wan_delay < sim::Time::zero()) wan_delay = sim::Time::zero();

  LinkConfig wan;
  wan.rate = kHostRate;
  wan.delay = wan_delay;
  wan.queue_bytes = kHostBufferBytes;
  network.connect(path.server, path.router, wan);

  LinkConfig down;
  down.rate = config.downlink_rate;
  down.delay = kAccessDelay;
  down.queue_bytes = config.downlink_buffer_bytes;
  down.random_loss_rate = config.downlink_loss_rate;

  LinkConfig up;
  up.rate = config.uplink_rate;
  up.delay = kAccessDelay;
  up.queue_bytes = config.downlink_buffer_bytes;
  up.random_loss_rate = config.downlink_loss_rate;

  LinkPair pair = network.connect(path.router, path.client, down, up);
  path.downlink = pair.forward;

  network.compute_routes();
  return path;
}

ParkingLot build_parking_lot(Network& network, int hops) {
  if (hops < 1) throw std::invalid_argument{"parking lot needs >= 1 hop"};
  ParkingLot lot;
  lot.hops = hops;

  for (int i = 0; i <= hops; ++i) lot.routers.push_back(network.add_node());

  LinkConfig access;
  access.rate = kHostRate;
  access.delay = kAccessDelay;
  access.queue_bytes = kHostBufferBytes;

  lot.main_sender = network.add_node();
  network.connect(lot.main_sender, lot.routers.front(), access);
  lot.main_receiver = network.add_node();
  network.connect(lot.main_receiver, lot.routers.back(), access);

  // The per-hop RTT budget sits on the hop link.
  LinkConfig hop;
  hop.rate = ParkingLot::kHopRate;
  hop.delay = ParkingLot::kPerHopRtt / 2.0;
  hop.queue_bytes = kParkingLotHopBufferBytes;
  for (int i = 0; i < hops; ++i) {
    LinkPair pair = network.connect(lot.routers[static_cast<std::size_t>(i)],
                                    lot.routers[static_cast<std::size_t>(i) + 1], hop);
    lot.bottlenecks.push_back(pair.forward);

    NodeId cs = network.add_node();
    network.connect(cs, lot.routers[static_cast<std::size_t>(i)], access);
    lot.cross_senders.push_back(cs);
    NodeId cr = network.add_node();
    network.connect(cr, lot.routers[static_cast<std::size_t>(i) + 1], access);
    lot.cross_receivers.push_back(cr);
  }

  network.compute_routes();
  return lot;
}

}  // namespace halfback::net
