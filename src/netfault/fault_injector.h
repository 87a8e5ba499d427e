// Deterministic per-link fault injector: composes the netfault models into
// a net::FaultHook that a Link consults after serialization.
//
// Determinism contract: a FaultInjector's decisions are a pure function of
// (FaultConfig, seed RNG, sequence of consulted packets+times). It owns its
// randomness outright — it never draws from the simulator's stream — so
// installing one cannot perturb arrival processes, queue draws, or any
// other seeded component, and a fault-free run's trace hash is untouched.
// Derive the injector's RNG from the experiment seed, NOT from
// simulator.random() (forking the live simulator stream would advance it
// and change the no-fault baseline). See docs/fault-injection.md.
#pragma once

#include <cstdint>
#include <optional>

#include "net/fault_hook.h"
#include "netfault/fault_config.h"
#include "netfault/fault_models.h"
#include "sim/random.h"

namespace halfback::netfault {

/// What an injector did, by model. Complements the owning link's
/// LinkStats fault counters with per-cause attribution.
struct InjectorStats {
  std::uint64_t packets_seen = 0;
  std::uint64_t outage_drops = 0;    ///< deterministic blackout windows
  std::uint64_t flap_drops = 0;      ///< random down phases
  std::uint64_t burst_drops = 0;     ///< Gilbert–Elliott losses
  std::uint64_t corrupted = 0;
  std::uint64_t duplicated = 0;      ///< extra copies requested
  std::uint64_t jittered = 0;        ///< reorder jitter applied
  std::uint64_t delay_spikes = 0;

  std::uint64_t total_drops() const {
    return outage_drops + flap_drops + burst_drops;
  }
};

/// Composes the fault models in a fixed decision order per packet:
/// outage/flap (drop), Gilbert–Elliott (drop), corruption, duplication,
/// reorder jitter, delay spike. Models that a drop short-circuits are not
/// consulted for that packet.
class FaultInjector final : public net::FaultHook {
 public:
  /// Validates `config` (throws std::invalid_argument on bad values).
  /// `rng` seeds all models; pass a stream derived from the experiment
  /// seed, e.g. `sim::Random{seed}.fork(salt)`.
  FaultInjector(FaultConfig config, sim::Random rng);

  net::FaultDecision on_transmit(const net::Packet& packet,
                                 sim::Time now) override;

  const InjectorStats& stats() const { return stats_; }

 private:
  FaultConfig config_;
  InjectorStats stats_;

  std::optional<OutageSchedule> outages_;
  std::optional<LinkFlap> flap_;
  std::optional<GilbertElliott> gilbert_elliott_;
  sim::Random corrupt_rng_;
  sim::Random duplicate_rng_;
  sim::Random reorder_rng_;
  sim::Random spike_rng_;
};

}  // namespace halfback::netfault
