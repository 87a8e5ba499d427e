// Reporting helpers: the percentile rule, the metric-name rule and the
// result line the benchmark prints last.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Samples that lie strictly above the nearest-rank q-quantile of n samples
/// (rank ceil(q * n), 1-based).
std::size_t samples_beyond(std::size_t n, double q);

struct Percentile {
  double value = 0.0;
  std::size_t count = 0;   ///< samples the percentile was taken over
  std::size_t beyond = 0;  ///< samples above it
};

/// Nearest-rank q-quantile of `samples`. A timing percentile is reported
/// only when at least `min_beyond` samples lie beyond it; otherwise this
/// throws std::invalid_argument.
Percentile percentile(std::vector<double> samples, double q,
                      std::size_t min_beyond = 10);

/// Median: the middle value, or the mean of the two middle values of an
/// even count. Throws on an empty input.
double median(std::vector<double> samples);

/// Metric names: 1-64 of [A-Za-z0-9_.-], starting with a letter or digit.
bool valid_metric_name(std::string_view name);

/// Units: 1-16 of [A-Za-z0-9_/%.-].
bool valid_unit(std::string_view unit);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The benchmark's result line, one JSON object:
/// {"correct":..,"attempted":..,"failed":..,"metrics":{"<name>":{"value":..,"unit":".."}}}
/// Values keep every digit (shortest round-trip form). Throws
/// std::invalid_argument on an invalid or repeated name, an invalid unit or
/// a non-finite value.
std::string result_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics);

}  // namespace perfbench
