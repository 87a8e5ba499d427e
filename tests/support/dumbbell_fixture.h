// Shared test harness: a dumbbell on an exp::Rig, used across the scheme,
// transport, integration and audit tests, so every run they make is audited.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>

#include "exp/rig.h"
#include "net/topology.h"
#include "schemes/factory.h"

namespace halfback::testing {

/// A dumbbell with one sender host and one receiver host.
inline net::DumbbellConfig one_pair(net::DumbbellConfig config = {}) {
  config.sender_count = 1;
  config.receiver_count = 1;
  return config;
}

/// A dumbbell with one agent per host and helpers to launch flows of any
/// scheme between host pairs. finish(), or failing that the destructor,
/// ends the run; an invariant violation fails the test with the report.
/// A test that installs a hub or profiler calls finish() while it lives.
struct DumbbellFixture {
  exp::Rig rig;
  sim::Simulator& sim;
  net::Network& net;
  net::Dumbbell dumbbell;
  schemes::SchemeContext context;
  net::FlowId next_flow = 1;

  explicit DumbbellFixture(net::DumbbellConfig config = {}, std::uint64_t seed = 1)
      : rig{seed},
        sim{rig.simulator()},
        net{rig.network()},
        dumbbell{net::build_dumbbell(net, config)} {
    for (net::NodeId id : dumbbell.senders) rig.add_agent(id);
    for (net::NodeId id : dumbbell.receivers) rig.add_agent(id);
  }

  DumbbellFixture(const DumbbellFixture&) = delete;
  DumbbellFixture& operator=(const DumbbellFixture&) = delete;

  ~DumbbellFixture() { finish(); }

  /// The agent on sender host `pair` (mod the sender count).
  transport::TransportAgent& sender_agent(std::size_t pair = 0) {
    return rig.agent(pair % dumbbell.senders.size());
  }
  /// The agent on receiver host `pair` (mod the receiver count).
  transport::TransportAgent& receiver_agent(std::size_t pair = 0) {
    return rig.agent(dumbbell.senders.size() + pair % dumbbell.receivers.size());
  }

  /// Start a flow of `scheme` from sender host `pair` to receiver host
  /// `pair` (mod the host counts). Returns the live sender.
  transport::SenderBase& start(schemes::Scheme scheme, std::uint64_t bytes,
                               std::size_t pair = 0) {
    return rig.start(sender_agent(pair), context,
                     exp::FlowSpec{scheme,
                                   dumbbell.receivers[pair % dumbbell.receivers.size()],
                                   next_flow++, bytes});
  }

  transport::Receiver* receiver_for(net::FlowId flow) {
    for (std::size_t r = 0; r < dumbbell.receivers.size(); ++r) {
      if (transport::Receiver* found = receiver_agent(r).receiver(flow)) return found;
    }
    return nullptr;
  }

  /// Rig::finish on the first call; returns the run's record.
  const exp::RunRecord& finish() {
    if (!finished_) {
      finished_ = true;
      rig.finish(record_);
      EXPECT_EQ(record_.audit_violations, 0u) << rig.auditor().report();
    }
    return record_;
  }

 private:
  exp::RunRecord record_;
  bool finished_ = false;
};

}  // namespace halfback::testing
