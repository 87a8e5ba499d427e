// Test loss injection through the link's one fault seam (net::FaultHook).
#pragma once

#include <functional>
#include <utility>

#include "net/fault_hook.h"
#include "net/packet.h"

namespace halfback::testing {

/// Drops every packet its predicate selects, after serialization, exactly
/// as a netfault drop would. Install with `link->set_fault_hook(&hook)`;
/// the hook must outlive the link's transmissions.
class DropHook final : public net::FaultHook {
 public:
  explicit DropHook(std::function<bool(const net::Packet&)> drop)
      : drop_{std::move(drop)} {}

  net::FaultDecision on_transmit(const net::Packet& packet,
                                 sim::Time /*now*/) override {
    net::FaultDecision decision;
    decision.drop = drop_(packet);
    return decision;
  }

 private:
  std::function<bool(const net::Packet&)> drop_;
};

}  // namespace halfback::testing
