#include "workload/flow_schedule.h"

#include <stdexcept>

namespace halfback::workload {

std::vector<FlowArrival> make_schedule(const FlowSizeDist& sizes,
                                       const ScheduleConfig& config,
                                       sim::Random& rng) {
  if (config.target_utilization <= 0.0) {
    throw std::invalid_argument{"target utilization must be positive"};
  }
  const double bytes_per_second =
      config.target_utilization * config.bottleneck.bytes_per_second();
  const double mean_interarrival_s = sizes.mean_bytes() / bytes_per_second;

  std::vector<FlowArrival> schedule;
  sim::Time t;
  while (true) {
    t += sim::Time::seconds(rng.exponential(mean_interarrival_s));
    if (t >= config.duration) break;
    schedule.push_back(FlowArrival{t, sizes.sample(rng)});
  }
  return schedule;
}

double offered_utilization(const std::vector<FlowArrival>& schedule,
                           const ScheduleConfig& config) {
  if (schedule.empty() || config.duration <= sim::Time::zero()) return 0.0;
  double total_bytes = 0.0;
  for (const FlowArrival& f : schedule) total_bytes += static_cast<double>(f.bytes);
  return total_bytes / (config.bottleneck.bytes_per_second() *
                        config.duration.to_seconds());
}

}  // namespace halfback::workload
