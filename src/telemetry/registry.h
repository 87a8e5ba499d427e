// MetricRegistry: the named catalog of one run's instruments.
//
// Registration order — not pointer order, not name order — defines export
// order, so two same-seed runs that register the same metrics in the same
// sequence produce byte-identical exports. Registering a name twice returns
// the existing instrument (the kind must match), which lets independent
// components share a counter without coordination.
//
// Concurrency contract: registration is serialized by an internal mutex
// and safe to call from concurrent threads. Instrument *updates* through
// the returned pointers are NOT synchronized — a registry belongs to one
// run (one Hub), and runs on different threads own different registries.
// The read accessors are lock-free by design: they are meant for the
// export phase, after the run has finished.
#pragma once

#include <cstddef>
#include <deque>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/annotations.h"
#include "telemetry/metric.h"

namespace halfback::telemetry {

enum class MetricKind : std::uint8_t { counter, gauge, histogram };

const char* to_string(MetricKind kind);

class MetricRegistry {
 public:
  /// One catalog row, in registration order.
  struct Entry {
    std::string name;
    std::string help;
    Unit unit = Unit::none;
    MetricKind kind = MetricKind::counter;
    std::size_t index = 0;  ///< into the per-kind instrument store
  };

  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// Register (or look up) an instrument. Returned pointers are stable for
  /// the registry's lifetime. Throws std::invalid_argument if `name` is
  /// already registered with a different kind.
  Counter* counter(const std::string& name, const std::string& help,
                   Unit unit = Unit::none) HB_EXCLUDES(mu_)
      HB_EFFECTS(alloc, throw, block);
  Gauge* gauge(const std::string& name, const std::string& help,
               Unit unit = Unit::none) HB_EXCLUDES(mu_)
      HB_EFFECTS(alloc, throw, block);
  Histogram* histogram(const std::string& name, const std::string& help,
                       Unit unit = Unit::none) HB_EXCLUDES(mu_)
      HB_EFFECTS(alloc, throw, block);

  // Read accessors are for the export phase, after the run has finished;
  // they take no lock so exporters can hold references across iteration.
  const std::vector<Entry>& entries() const HB_NO_THREAD_SAFETY_ANALYSIS {
    return entries_;
  }
  std::size_t size() const HB_NO_THREAD_SAFETY_ANALYSIS {
    return entries_.size();
  }

  const Counter& counter_at(const Entry& e) const
      HB_NO_THREAD_SAFETY_ANALYSIS {
    return counters_[e.index];
  }
  const Gauge& gauge_at(const Entry& e) const HB_NO_THREAD_SAFETY_ANALYSIS {
    return gauges_[e.index];
  }
  const Histogram& histogram_at(const Entry& e) const
      HB_NO_THREAD_SAFETY_ANALYSIS {
    return histograms_[e.index];
  }

  /// Lookup by name (linear scan; registration-time convenience, not a hot
  /// path). Returns nullptr when absent. Export-phase accessor: no lock.
  const Entry* find(const std::string& name) const
      HB_NO_THREAD_SAFETY_ANALYSIS;

 private:
  /// Register `name` as `kind`, storing `fresh` in `store`, or return the
  /// instrument already registered under it.
  template <class Instrument>
  Instrument* enroll(std::deque<Instrument>& store, Instrument fresh,
                  MetricKind kind, const std::string& name,
                  const std::string& help, Unit unit) HB_REQUIRES(mu_);

  mutable Mutex mu_;
  std::vector<Entry> entries_ HB_GUARDED_BY(mu_);
  // Deques give instrument pointers stability across growth.
  std::deque<Counter> counters_ HB_GUARDED_BY(mu_);
  std::deque<Gauge> gauges_ HB_GUARDED_BY(mu_);
  std::deque<Histogram> histograms_ HB_GUARDED_BY(mu_);
};

}  // namespace halfback::telemetry
