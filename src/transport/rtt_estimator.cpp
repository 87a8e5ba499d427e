#include "transport/rtt_estimator.h"

#include <algorithm>

namespace halfback::transport {

void RttEstimator::add_sample(sim::Time rtt) {
  if (rtt < sim::Time::zero()) return;
  latest_rtt_ = rtt;
  min_rtt_ = std::min(min_rtt_, rtt);
  if (!has_sample_) {
    // RFC 6298 (2.2): first measurement.
    srtt_ = rtt;
    rttvar_ = rtt / 2.0;
    has_sample_ = true;
  } else {
    // RFC 6298 (2.3): RTTVAR before SRTT, beta = 1/4, alpha = 1/8.
    sim::Time err = srtt_ - rtt;
    if (err < sim::Time::zero()) err = rtt - srtt_;
    rttvar_ = rttvar_ * 0.75 + err * 0.25;
    srtt_ = srtt_ * 0.875 + rtt * 0.125;
  }
  backoff_multiplier_ = 1;
}

sim::Time RttEstimator::rto() const {
  sim::Time base = has_sample_ ? srtt_ + 4.0 * rttvar_ : config_.initial_rto;
  base = std::max(base, config_.min_rto);
  base = base * static_cast<double>(backoff_multiplier_);
  return std::min(base, kMaxRto);
}

void RttEstimator::backoff() {
  if (backoff_multiplier_ < (1 << 16)) backoff_multiplier_ *= 2;
}

}  // namespace halfback::transport
