// The speed gauge: a fixed reference kernel timed between runs, so that run
// times taken while the machine's speed drifts can be put on one scale.
//
// On a shared machine the simulator runs up to 2x slower for seconds to
// minutes at a time, as other tenants load the host. A run's wall time is
// the work times the machine's current slowness; the gauge, timed next to
// the run, measures the slowness alone, and dividing it out keeps the work.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// Wall time of one execution of the reference kernel, in ms. The kernel
/// does the kinds of work the simulator does (a binary heap, a hash map,
/// type-erased calls, small allocations) but none of the simulator's code,
/// so a change to the simulator never changes it.
double gauge_ms();

/// The gauge's typical time on the reference machine (a 4-vCPU VM, gcc 12.2
/// -O2). Scaled times read as that machine's milliseconds.
constexpr double kReferenceGaugeMs = 2.5;

/// When the host slows the gauge by a factor s, it slows the simulator by
/// about s^kSensitivity: the simulator touches more memory than the gauge
/// and loses more to the other tenants. Fitted on 150 s recordings of each
/// workload's runs with the gauge between them, where it minimised the
/// spread of pass times on all four (IQR/median 0.20-0.25 unscaled,
/// 0.06-0.07 at exponent 1, 0.025-0.043 at 1.25).
constexpr double kSensitivity = 1.25;

/// Gauge samples taken through a process's timed spans (set-ups and runs),
/// and the factor that puts each span on the reference machine's scale.
class SpeedScale {
 public:
  /// Timed work between two samples: ~4 % of the time goes to the gauge.
  static constexpr double kSpacingMs = 50.0;
  /// A span's factor uses this many samples on each side of it.
  static constexpr std::size_t kNeighbours = 4;

  /// Call before a timed span. Samples the gauge when kSpacingMs of timed
  /// work has passed since the last sample, and returns the span's mark:
  /// the index of the latest sample.
  std::size_t before_span();
  /// Call after it, with its wall time.
  void after_span(double wall_ms) { since_sample_ms_ += wall_ms; }
  /// Call once the timed spans are over: samples after the last spans.
  void finish();

  /// (kReferenceGaugeMs / g)^kSensitivity, where g is the median of the
  /// samples around `mark` (the kNeighbours up to it and the kNeighbours
  /// after it). A span's wall time times this is its time on the reference
  /// machine.
  double factor(std::size_t mark) const;

  const std::vector<double>& samples() const { return samples_; }

 private:
  std::vector<double> samples_;
  double since_sample_ms_ = 0.0;
};

}  // namespace perfbench
