// Utilization sweeps: the engines behind Figs. 1, 12, 13, 14 and 17.
#pragma once

#include <map>
#include <vector>

#include "exp/emulab.h"
#include "sim/bytes.h"
#include "schemes/scheme.h"
#include "stats/feasible_capacity.h"

namespace halfback::exp {

/// One (scheme, utilization) cell of a sweep.
struct SweepCell {
  schemes::Scheme scheme;
  double utilization = 0.0;
  double mean_fct_ms = 0.0;    // lint: unit-ok(statistics edge: report column in ms)
  double median_fct_ms = 0.0;  // lint: unit-ok(statistics edge: report column in ms)
  double mean_normal_retx = 0.0;
  double mean_proactive_retx = 0.0;
  double mean_timeouts = 0.0;
  std::size_t flows = 0;
  std::size_t unfinished = 0;
  /// Invariant violations summed over the cell's replications (0 = clean).
  std::uint64_t audit_violations = 0;
};

/// Fig. 12 / Fig. 17: all-short-flow (100 KB) workload at each
/// utilization, same arrival schedule for every scheme at a given
/// utilization.
struct UtilizationSweepConfig {
  EmulabRunner::Config runner;
  std::vector<double> utilizations;       ///< e.g. 0.05 .. 0.90
  sim::Time duration = sim::Time::seconds(60);
  unsigned threads = 0;
  /// Independent replications per cell (distinct seeds and schedules);
  /// cell statistics are averaged across replications.
  int replications = 1;
};

std::vector<SweepCell> utilization_sweep(const UtilizationSweepConfig& config,
                                         std::span<const schemes::Scheme> schemes);

/// Feasible capacity per scheme from a finished sweep (Fig. 1's x-axis).
/// `metric` selects the FCT statistic the collapse criterion applies to;
/// the median is robust to censoring noise in short sweep windows, the
/// mean (the paper's y-axis) reacts to tail blowups earlier.
std::map<schemes::Scheme, double> feasible_capacities(
    const std::vector<SweepCell>& sweep,
    const stats::CollapseCriterion& criterion = {},
    double (*metric)(const SweepCell&) = nullptr);

/// Low-load mean FCT per scheme from a finished sweep (Fig. 1's y-axis).
std::map<schemes::Scheme, double> low_load_fct(const std::vector<SweepCell>& sweep);

/// Fig. 13: 10% of traffic from 100 KB short flows (the scheme under
/// test), 90% from long TCP flows; FCTs normalized by the all-TCP baseline.
struct MixSweepConfig {
  EmulabRunner::Config runner;
  std::vector<double> utilizations;  ///< e.g. 0.30 .. 0.85
  sim::Bytes long_bytes = 5'000'000;  ///< paper: 100 MB; scaled by default
  sim::Time duration = sim::Time::seconds(60);
  unsigned threads = 0;
};

struct MixCell {
  schemes::Scheme scheme;
  double utilization = 0.0;
  double short_fct_ms = 0.0;  // lint: unit-ok(statistics edge: report column in ms)
  double long_fct_ms = 0.0;   // lint: unit-ok(statistics edge: report column in ms)
  /// Normalized by the same-utilization all-TCP baseline (1.0 = no change).
  double short_fct_normalized = 0.0;
  double long_fct_normalized = 0.0;
  /// Invariant violations in the cell's run plus the all-TCP baseline it
  /// is normalized by (0 = clean).
  std::uint64_t audit_violations = 0;
};

std::vector<MixCell> mix_sweep(const MixSweepConfig& config,
                               std::span<const schemes::Scheme> schemes);

/// Fig. 14: half the 100 KB flows run `scheme`, half run TCP, at
/// utilizations 5%..30%. Coordinates are factor-changes in FCT due to
/// co-existence.
struct FriendlinessConfig {
  EmulabRunner::Config runner;
  std::vector<double> utilizations{0.05, 0.10, 0.15, 0.20, 0.25, 0.30};
  sim::Time duration = sim::Time::seconds(60);
  unsigned threads = 0;
};

struct FriendlinessPoint {
  schemes::Scheme scheme;
  double utilization = 0.0;
  double tcp_fct_vs_reference = 0.0;     ///< x-axis
  double scheme_fct_vs_reference = 0.0;  ///< y-axis
  /// Jain fairness index over all flows' FCTs in the mixed run (1 = every
  /// flow fared equally, regardless of protocol).
  double fct_fairness = 0.0;
  /// Invariant violations in the point's mixed and all-scheme runs plus
  /// the all-TCP reference it is scaled by (0 = clean).
  std::uint64_t audit_violations = 0;
};

std::vector<FriendlinessPoint> friendliness_matrix(
    const FriendlinessConfig& config, std::span<const schemes::Scheme> schemes);

/// Fig. 11: FCT as a function of flow size at 25% utilization, with flow
/// sizes drawn from a measured distribution truncated at 1 MB.
struct FlowSizeSweepConfig {
  EmulabRunner::Config runner;
  workload::FlowSizeDist sizes = workload::FlowSizeDist::internet();
  sim::Time duration = sim::Time::seconds(60);
  sim::Bytes bin_bytes = sim::Bytes::kilobytes(25);  ///< FCT reported per flow-size bin
  unsigned threads = 0;
};

struct FlowSizeCell {
  schemes::Scheme scheme;
  double bin_center_kb = 0.0;  // lint: unit-ok(statistics edge: bin center in KB for the Fig. 11 axis)
  double mean_fct_ms = 0.0;    // lint: unit-ok(statistics edge: report column in ms)
  std::size_t flows = 0;
  /// Invariant violations in the scheme's run this bin was cut from.
  std::uint64_t audit_violations = 0;
};

std::vector<FlowSizeCell> flow_size_sweep(const FlowSizeSweepConfig& config,
                                          std::span<const schemes::Scheme> schemes);

}  // namespace halfback::exp
