// Flow arrival schedules.
//
// Experiments that compare schemes "use the same schedule of flow arrivals
// for each network utilization" (§4.3.2), so schedules are generated once
// (seeded) and replayed against every scheme.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/data_rate.h"
#include "sim/random.h"
#include "sim/time.h"
#include "workload/flow_size.h"

namespace halfback::workload {

/// One planned flow.
struct FlowArrival {
  sim::Time at;
  std::uint64_t bytes = 0;
};

/// Poisson arrivals in [0, duration) of flows drawn from a size
/// distribution, paced to hit a target utilization of a bottleneck.
struct ScheduleConfig {
  double target_utilization = 0.25;  ///< fraction of the bottleneck rate
  sim::DataRate bottleneck = sim::DataRate::megabits_per_second(15);
  sim::Time duration = sim::Time::seconds(60);
};

/// Generate a schedule. Exponential interarrival times with mean chosen so
/// that mean_flow_bytes / mean_interarrival = utilization * bottleneck.
std::vector<FlowArrival> make_schedule(const FlowSizeDist& sizes,
                                       const ScheduleConfig& config,
                                       sim::Random& rng);

/// Offered load of an existing schedule against a bottleneck (sanity
/// checks and utilization accounting).
double offered_utilization(const std::vector<FlowArrival>& schedule,
                           const ScheduleConfig& config);

}  // namespace halfback::workload
