// TCP-Cache [after Padmanabhan & Katz's TCP Fast Start]: reuse the
// congestion state (cwnd, ssthresh) of the previous connection to the same
// destination instead of slow-starting from scratch.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <utility>

#include "transport/tcp_sender.h"

namespace halfback::schemes {

/// Shared per-path congestion-state cache. One instance is shared by every
/// TCP-Cache sender in an experiment (the paper notes this gives TCP-Cache
/// an "unrealistic advantage" on a static topology — which we faithfully
/// reproduce, including the Fig. 11 region where it beats Halfback for
/// tens-of-KB flows). Entries never age, as in the paper's §4.2.4 setup.
class PathCache {
 public:
  struct Entry {
    double cwnd = 0;
    double ssthresh = 0;
  };

  void store(net::NodeId src, net::NodeId dst, Entry entry) {
    cache_[{src, dst}] = entry;
  }

  /// Entry for this path, or nullptr if absent.
  const Entry* lookup(net::NodeId src, net::NodeId dst) const {
    auto it = cache_.find({src, dst});
    return it == cache_.end() ? nullptr : &it->second;
  }

  std::size_t size() const { return cache_.size(); }

 private:
  std::map<std::pair<net::NodeId, net::NodeId>, Entry> cache_;
};

/// TCP that starts from the cached window of the last flow on this path.
class TcpCacheSender final : public transport::TcpSenderImpl<TcpCacheSender> {
  using Tcp = transport::TcpSenderImpl<TcpCacheSender>;

 public:
  TcpCacheSender(sim::Simulator& simulator, net::Node& local_node, net::NodeId peer,
                 net::FlowId flow, sim::Bytes flow_bytes,
                 transport::SenderConfig config, std::shared_ptr<PathCache> cache)
      : TcpSenderImpl{simulator, local_node, peer,  flow,
                      flow_bytes, config,    "tcp-cache"},
        cache_{std::move(cache)} {}

  // --- policy hooks (statically dispatched by Sender<TcpCacheSender>) ------

  void on_established() {
    Tcp::on_established();
    const PathCache::Entry* entry =
        cache_ ? cache_->lookup(node_.id(), peer_) : nullptr;
    if (entry != nullptr) {
      // Resume from the cached state, bounded by the receive window.
      cwnd_ = std::min(std::max(entry->cwnd, cwnd_),
                       static_cast<double>(config_.receive_window_segments));
      ssthresh_ = entry->ssthresh;
      send_available();
    }
  }

  void on_flow_complete() {
    if (!cache_) return;
    cache_->store(node_.id(), peer_, PathCache::Entry{cwnd_, ssthresh_});
  }

 private:
  std::shared_ptr<PathCache> cache_;
};

}  // namespace halfback::schemes
