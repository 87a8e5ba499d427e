#include "telemetry/registry.h"

#include <utility>

#include "telemetry/metric.h"

namespace halfback::telemetry {

const char* to_string(Unit unit) {
  switch (unit) {
    case Unit::none: return "";
    case Unit::events: return "events";
    case Unit::packets: return "packets";
    case Unit::segments: return "segments";
    case Unit::flows: return "flows";
    case Unit::bytes: return "bytes";
    case Unit::nanoseconds: return "ns";
    case Unit::ratio: return "ratio";
  }
  return "";
}

const char* to_string(MetricKind kind) {
  switch (kind) {
    case MetricKind::counter: return "counter";
    case MetricKind::gauge: return "gauge";
    case MetricKind::histogram: return "histogram";
  }
  return "?";
}

std::uint64_t Histogram::bucket_lower(std::size_t i) {
  constexpr std::uint64_t m = std::uint64_t{1} << kSubBucketBits;
  if (i < m) return i;
  const std::uint64_t block = i / m;  // >= 1
  const std::uint64_t sub = i % m;
  const unsigned shift = static_cast<unsigned>(block - 1);
  return (m + sub) << shift;
}

std::uint64_t Histogram::bucket_upper(std::size_t i) {
  return bucket_lower(i + 1);
}

std::uint64_t Histogram::value_at_quantile(double q) const {
  if (count_ == 0) return 0;
  if (q <= 0.0) return min();
  if (q >= 1.0) return max_;
  const double target = q * static_cast<double>(count_);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < used_; ++i) {
    if (counts_[i] == 0) continue;
    const std::uint64_t before = cumulative;
    cumulative += counts_[i];
    if (static_cast<double>(cumulative) >= target) {
      const std::uint64_t lower = bucket_lower(i);
      const std::uint64_t upper = bucket_upper(i);
      const double inside =
          (target - static_cast<double>(before)) /
          static_cast<double>(counts_[i]);
      std::uint64_t v =
          lower + static_cast<std::uint64_t>(
                      inside * static_cast<double>(upper - lower));
      if (v < min()) v = min();
      if (v > max_) v = max_;
      return v;
    }
  }
  return max_;
}

const MetricRegistry::Entry* MetricRegistry::find(const std::string& name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

template <class Instrument>
Instrument* MetricRegistry::enroll(std::deque<Instrument>& store,
                                   Instrument fresh, MetricKind kind,
                                   const std::string& name,
                                   const std::string& help, Unit unit) {
  if (const Entry* e = find(name)) {
    if (e->kind != kind) {
      throw std::invalid_argument{"metric '" + name +
                                  "' already registered with a different kind"};
    }
    return &store[e->index];
  }
  store.push_back(std::move(fresh));
  entries_.push_back(Entry{name, help, unit, kind, store.size() - 1});
  return &store.back();
}

Counter* MetricRegistry::counter(const std::string& name, const std::string& help,
                                 Unit unit) {
  MutexLock lock{mu_};
  return enroll(counters_, Counter{}, MetricKind::counter, name, help, unit);
}

Gauge* MetricRegistry::gauge(const std::string& name, const std::string& help,
                             Unit unit) {
  MutexLock lock{mu_};
  return enroll(gauges_, Gauge{}, MetricKind::gauge, name, help, unit);
}

Histogram* MetricRegistry::histogram(const std::string& name,
                                     const std::string& help, Unit unit) {
  MutexLock lock{mu_};
  return enroll(histograms_, Histogram{},
                MetricKind::histogram, name, help, unit);
}

}  // namespace halfback::telemetry
