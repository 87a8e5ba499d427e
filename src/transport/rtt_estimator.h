// RFC 6298 round-trip-time estimation and retransmission timeout.
#pragma once

#include "sim/annotations.h"
#include "sim/time.h"

namespace halfback::transport {

/// Smoothed RTT / RTT variance estimator with exponential RTO backoff.
///
/// All schemes in the paper share this machinery; what differs between them
/// is *when* they transmit, not how they estimate the path.
class RttEstimator {
 public:
  /// RFC 6298's ceiling on the backed-off timeout.
  static constexpr sim::Time kMaxRto = sim::Time::seconds(60);

  struct Config {
    sim::Time initial_rto = sim::Time::seconds(1);
    /// RFC 6298's 1-second floor (the paper's UDT substrate behaves the
    /// same way). The magnitude of the timeout is exactly what Halfback's
    /// ROPR masks and what makes JumpStart's reactive-only recovery
    /// expensive, so lowering this (Linux uses 200 ms) compresses the
    /// paper's gaps.
    sim::Time min_rto = sim::Time::seconds(1);
  };

  RttEstimator() : RttEstimator{Config{}} {}
  explicit RttEstimator(Config config) : config_{config} {}

  /// Feed one Karn-valid RTT sample.
  void add_sample(sim::Time rtt) HB_EFFECTS();

  /// Current retransmission timeout, including any backoff in effect.
  sim::Time rto() const HB_EFFECTS();

  /// Double the timeout after a retransmission timeout fires.
  void backoff();

  /// Collapse accumulated backoff (called when new data is acked).
  void reset_backoff() { backoff_multiplier_ = 1; }

  bool has_sample() const { return has_sample_; }
  sim::Time srtt() const { return srtt_; }
  sim::Time rttvar() const { return rttvar_; }
  sim::Time min_rtt() const { return min_rtt_; }
  sim::Time latest_rtt() const { return latest_rtt_; }

 private:
  Config config_;
  bool has_sample_ = false;
  sim::Time srtt_;
  sim::Time rttvar_;
  sim::Time min_rtt_ = sim::Time::infinity();
  sim::Time latest_rtt_;
  int backoff_multiplier_ = 1;
};

}  // namespace halfback::transport
