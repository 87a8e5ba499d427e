// Metric instruments: typed counters, gauges, and fixed log-linear
// histograms.
//
// Instruments live inside a MetricRegistry (registry.h) and are handed out
// as stable pointers — the "compile-time-cheap handles" components keep for
// the lifetime of a run. A component that may run without telemetry holds a
// null handle and guards each update with a single branch; that branch is
// the entire hot-path cost of the disabled configuration.
//
// Determinism contract: instruments only *observe*. They never draw
// randomness, schedule events, or read wall clocks, so installing telemetry
// cannot perturb a seeded run (the trace-hash anchors in tests/audit/ stay
// bit-identical with a Hub installed).
#pragma once

#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/annotations.h"
#include "sim/time.h"

namespace halfback::telemetry {

/// Unit annotation carried by an instrument for export labeling. Purely
/// descriptive — values are stored as raw integers (nanoseconds for time,
/// bytes for data) and the exporters print the unit next to the name.
enum class Unit : std::uint8_t {
  none,
  events,
  packets,
  segments,
  flows,
  bytes,
  nanoseconds,
  ratio,
};

const char* to_string(Unit unit);

/// Monotonically increasing count.
class Counter {
 public:
  void add(std::uint64_t n) HB_EFFECTS() { value_ += n; }
  void increment() HB_EFFECTS() { ++value_; }
  std::uint64_t value() const { return value_; }

 private:
  friend class MetricRegistry;
  Counter() = default;
  std::uint64_t value_ = 0;
};

/// Last-written value (doubles, so utilization/ratios fit; integral values
/// round-trip exactly below 2^53).
class Gauge {
 public:
  void set(double v) HB_EFFECTS() { value_ = v; }
  /// High-water-mark update (e.g. max queue depth).
  void set_max(double v) {
    if (v > value_) value_ = v;
  }
  double value() const { return value_; }

 private:
  friend class MetricRegistry;
  Gauge() = default;
  double value_ = 0.0;
};

/// Fixed log-linear histogram over non-negative 64-bit values (HdrHistogram
/// style, pure integer math, no floating point on the record path).
///
/// With k = kSubBucketBits, the first 2^k buckets are unit-wide: value
/// v < 2^k lands in bucket v. Every further power of two is split into 2^k
/// equal-width sub-buckets, so relative bucket resolution stays ~2^-k
/// across the whole 64-bit range. Bucket edges are a pure function of the
/// index — they are locked by a golden file in tests/telemetry/ so exported
/// histograms stay comparable across versions. Every bucket of the 64-bit
/// range (496) is allocated at registration, so recording never allocates;
/// the occupied range runs up to the highest bucket recorded into.
class Histogram {
 public:
  /// Sub-bucket resolution: 2^kSubBucketBits sub-buckets per octave.
  static constexpr unsigned kSubBucketBits = 3;

  void record(std::uint64_t v) HB_EFFECTS() {
    const std::size_t i = bucket_index(v);
    if (i >= used_) used_ = i + 1;
    ++counts_[i];
    ++count_;
    sum_ += v;
    if (v < min_) min_ = v;
    if (v > max_) max_ = v;
  }
  /// sim::Time values are recorded in nanoseconds; negative durations
  /// (clock bugs) clamp to zero rather than wrapping.
  void record_time(sim::Time t) {
    record(t.ns() < 0 ? 0u : static_cast<std::uint64_t>(t.ns()));
  }

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t min() const { return count_ == 0 ? 0 : min_; }
  std::uint64_t max() const { return max_; }
  double mean() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(count_);
  }

  /// Occupied bucket range; buckets() is indexed [0, bucket_count()).
  std::size_t bucket_count() const { return used_; }
  std::uint64_t bucket_value(std::size_t i) const { return counts_[i]; }

  /// Inclusive lower edge of bucket `i` (pure function).
  static std::uint64_t bucket_lower(std::size_t i);
  /// Exclusive upper edge of bucket `i` (lower edge of bucket i+1).
  static std::uint64_t bucket_upper(std::size_t i);

  /// Exact bucket-walk quantile: walk the cumulative distribution to the
  /// target rank q * count(), then interpolate linearly between the winning
  /// bucket's edges by the rank's position inside it. The result is clamped
  /// to the recorded [min(), max()] so sparse histograms report the exact
  /// extremes at q = 0 and q = 1 instead of bucket edges. This is the
  /// percentile the exporters and `hbreport` print (p50/p90/p99/p99.9).
  std::uint64_t value_at_quantile(double q) const;

  static std::size_t bucket_index(std::uint64_t v) {
    constexpr std::uint64_t m = std::uint64_t{1} << kSubBucketBits;
    if (v < m) return static_cast<std::size_t>(v);
    const unsigned msb = static_cast<unsigned>(std::bit_width(v)) - 1;
    const unsigned shift = msb - kSubBucketBits;
    const std::uint64_t sub = (v >> shift) - m;
    return static_cast<std::size_t>((static_cast<std::uint64_t>(shift) + 1) * m +
                                    sub);
  }

 private:
  friend class MetricRegistry;
  Histogram() : counts_(bucket_index(~std::uint64_t{0}) + 1, 0) {}

  std::vector<std::uint64_t> counts_;  ///< every bucket of the 64-bit range
  std::size_t used_ = 0;               ///< highest occupied bucket + 1
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_ = 0;
};

}  // namespace halfback::telemetry
