// Short flows across a multi-bottleneck parking-lot chain (paper §7 future
// work: "emulation with more complex topologies"), with per-hop TCP cross
// traffic loading every hop independently.
#pragma once

#include <cstddef>
#include <cstdint>

#include "exp/rig.h"
#include "sim/time.h"
#include "stats/summary.h"

namespace halfback::exp {

/// The main-path flows of one parking-lot run.
struct ParkingLotResult : RunRecord {
  /// FCT of each started flow; one still open at the end counts its age.
  stats::Summary fct_ms;
  double timeouts = 0;         ///< summed over the flows
  std::size_t flows = 0;       ///< flows whose start fired
  std::size_t unfinished = 0;  ///< of those, still open at the end
};

/// A `hops`-hop net::build_parking_lot chain for `duration` plus a 30 s
/// drain: 100 KB TCP cross flows at `cross_utilization` of every hop, and
/// a 100 KB flow of `scheme` across the chain every 2 s from t = 1 s.
ParkingLotResult run_parking_lot(schemes::Scheme scheme, int hops,
                                 double cross_utilization, std::uint64_t seed,
                                 sim::Time duration);

}  // namespace halfback::exp
