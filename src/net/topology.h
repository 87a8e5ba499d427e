// Topology builders for the paper's evaluation environments.
#pragma once

#include <cstdint>
#include <vector>

#include "net/network.h"
#include "sim/annotations.h"

namespace halfback::net {

/// The Emulab single-bottleneck dumbbell of Fig. 4: sender hosts on 1 Gbps
/// access links, a 15 Mbps bottleneck with a 60 ms RTT, receiver hosts on
/// 1 Gbps access links. The bottleneck buffer defaults to the BDP (115 KB);
/// every access link has 4 MB, enough never to drop.
struct DumbbellConfig {
  int sender_count = 8;
  int receiver_count = 8;
  sim::DataRate access_rate = sim::DataRate::gigabits_per_second(1);
  sim::DataRate bottleneck_rate = sim::DataRate::megabits_per_second(15);
  sim::Time rtt = sim::Time::milliseconds(60);
  sim::Bytes bottleneck_buffer_bytes = 115000;
  QueueKind bottleneck_queue = QueueKind::drop_tail;
};

struct Dumbbell {
  std::vector<NodeId> senders;
  std::vector<NodeId> receivers;
  NodeId left_router = 0;
  NodeId right_router = 0;
  Link* bottleneck_forward = nullptr;  ///< senders -> receivers direction
  Link* bottleneck_reverse = nullptr;
  DumbbellConfig config;

  /// Bandwidth-delay product of the forward bottleneck, in bytes.
  std::uint64_t bdp_bytes() const {
    return static_cast<std::uint64_t>(config.bottleneck_rate.bytes_per_second() *
                                      config.rtt.to_seconds());
  }
};

/// Build the dumbbell inside `network` (which should be empty) and install
/// routes.
Dumbbell build_dumbbell(Network& network, const DumbbellConfig& config)
    HB_EFFECTS(alloc, throw, rng);

/// A single wide-area path with an access-link bottleneck: used for the
/// PlanetLab path ensemble and the home-network profiles. The server sits
/// behind a fast (1 Gbps) first hop; the bottleneck is the router->client
/// "downlink".
struct AccessPathConfig {
  sim::DataRate downlink_rate = sim::DataRate::megabits_per_second(25);
  sim::DataRate uplink_rate = sim::DataRate::megabits_per_second(10);
  sim::Time rtt = sim::Time::milliseconds(60);
  sim::Bytes downlink_buffer_bytes = 64000;
  LossRate downlink_loss_rate;  ///< random loss (wireless profiles)
};

struct AccessPath {
  NodeId server = 0;
  NodeId router = 0;
  NodeId client = 0;
  Link* downlink = nullptr;
  AccessPathConfig config;
};

AccessPath build_access_path(Network& network, const AccessPathConfig& config)
    HB_EFFECTS(alloc, rng);

/// Multi-bottleneck "parking lot" chain (the paper's §7 future work:
/// "emulation with more complex topologies"): routers R0..Rn in a line,
/// one end-to-end host pair traversing every hop, and one cross-traffic
/// host pair per hop whose flows occupy only that hop. Hosts sit on 1 Gbps
/// access links; every hop is an Emulab-sized bottleneck (15 Mbps, 20 ms
/// RTT, 115 KB buffer).
///
///   main_sender - R0 ===hop0=== R1 ===hop1=== R2 ... Rn - main_receiver
///                  \cross_s[0] -> cross_r[0] spans hop0 only, etc.
struct ParkingLot {
  static constexpr sim::DataRate kHopRate = sim::DataRate::megabits_per_second(15);
  static constexpr sim::Time kPerHopRtt = sim::Time::milliseconds(20);

  int hops = 0;
  std::vector<NodeId> routers;          ///< hops+1 routers
  NodeId main_sender = 0;               ///< attached to routers.front()
  NodeId main_receiver = 0;             ///< attached to routers.back()
  std::vector<NodeId> cross_senders;    ///< one per hop, at routers[i]
  std::vector<NodeId> cross_receivers;  ///< one per hop, at routers[i+1]
  std::vector<Link*> bottlenecks;       ///< forward link of each hop

  /// End-to-end propagation RTT of the main path.
  sim::Time end_to_end_rtt() const {
    return kPerHopRtt * static_cast<double>(hops);
  }
};

ParkingLot build_parking_lot(Network& network, int hops)
    HB_EFFECTS(alloc, throw, rng);

}  // namespace halfback::net
