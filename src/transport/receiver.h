// Flow receiver: acknowledges data with cumulative + selective ACKs.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "net/node.h"
#include "net/packet.h"
#include "sim/simulator.h"

namespace halfback::transport {

/// Receiver half of a flow. Created by the TransportAgent when a SYN
/// arrives. Sends one ACK per arriving data packet: the paper's UDT
/// substrate used per-packet selective acknowledgements.
class Receiver {
 public:
  /// SACK blocks per ACK, matching the TCP SACK option's practical limit.
  /// Scattered losses across more than three runs are therefore only
  /// partially visible to the sender per ACK — the fragility of purely
  /// reactive loss detection that §2.2 highlights.
  static constexpr std::size_t kMaxSackBlocks = 3;
  static_assert(kMaxSackBlocks <= net::SackList::kMaxBlocks);

  struct Stats {
    std::uint32_t total_segments = 0;
    std::uint32_t unique_segments = 0;
    std::uint32_t duplicate_segments = 0;  ///< arrivals of already-held data
    std::uint32_t data_packets = 0;
    std::uint32_t acks_sent = 0;
    bool complete = false;
    sim::Time first_data_at;
    sim::Time complete_at;
  };

  Receiver(sim::Simulator& simulator, net::Node& local_node, net::NodeId peer,
           net::FlowId flow)
      : simulator_{simulator}, node_{local_node}, peer_{peer}, flow_{flow} {}

  /// Entry point for SYN and DATA packets of this flow.
  void on_packet(const net::Packet& packet) HB_EFFECTS(alloc, throw);

  const Stats& stats() const { return stats_; }
  net::FlowId flow() const { return flow_; }

  /// Lowest segment index not yet received.
  std::uint32_t cum_ack() const { return cum_ack_; }

 private:
  void handle_syn(const net::Packet& syn);
  void handle_data(const net::Packet& data);
  void send_ack(const net::Packet& trigger);
  /// Up to kMaxSackBlocks blocks: the run containing the triggering
  /// segment first, then the most recently reported other runs (TCP SACK
  /// option semantics).
  net::SackList build_sack_blocks(std::uint32_t trigger_seq);
  net::SackBlock run_containing(std::uint32_t seq) const;
  /// Merge segment `seq` into runs_; false when a run already holds it.
  bool note_received(std::uint32_t seq);

  sim::Simulator& simulator_;
  net::Node& node_;
  net::NodeId peer_;
  net::FlowId flow_;

  /// The received segments as maximal runs, keyed by run start (half-open
  /// [begin, end)): SACK-block construction reads a run in one lookup, and
  /// the run starting at 0 ends at the cumulative ACK.
  std::map<std::uint32_t, std::uint32_t> runs_;
  std::uint32_t cum_ack_ = 0;
  std::vector<std::uint32_t> recent_seqs_;  ///< anchors of recently reported runs
  std::uint64_t next_uid_ = 1;
  Stats stats_;
};

}  // namespace halfback::transport
