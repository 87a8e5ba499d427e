// Deterministic randomness for experiments.
#pragma once

#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "sim/annotations.h"
#include "sim/time.h"

namespace halfback::sim {

/// A seeded random stream. Every experiment owns its streams explicitly so
/// that a run is reproducible bit-for-bit from its seed, and so that adding
/// draws to one component does not perturb another component's sequence.
class Random {
 public:
  explicit Random(std::uint64_t seed) : engine_{seed} {}

  /// Derive an independent child stream; `salt` distinguishes siblings.
  Random fork(std::uint64_t salt) HB_EFFECTS(rng) {
    std::uint64_t child_seed = engine_() ^ (salt * 0x9e3779b97f4a7c15ULL);
    return Random{child_seed};
  }

  /// Uniform double in [0, 1).
  double uniform() { return std::uniform_real_distribution<double>{0.0, 1.0}(engine_); }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>{lo, hi}(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>{lo, hi}(engine_);
  }

  /// True with probability p.
  bool bernoulli(double p) { return uniform() < p; }

  /// Exponential with the given mean.
  double exponential(double mean) {
    return std::exponential_distribution<double>{1.0 / mean}(engine_);
  }

  Time exponential(Time mean) { return Time::seconds(exponential(mean.to_seconds())); }

  /// Log-normal given the mean and sigma of the underlying normal.
  double lognormal(double mu, double sigma) {
    return std::lognormal_distribution<double>{mu, sigma}(engine_);
  }

  /// Pareto with given scale (minimum) and shape alpha.
  double pareto(double scale, double alpha) {
    double u = uniform();
    return scale / std::pow(1.0 - u, 1.0 / alpha);
  }

  /// Log-uniform in [lo, hi): uniform in the exponent.
  double log_uniform(double lo, double hi) {
    return lo * std::pow(hi / lo, uniform());
  }

  /// Index into a discrete weight vector proportional to its entries.
  std::size_t weighted_index(std::span<const double> weights)
      HB_EFFECTS(throw);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i) - 1));
      std::swap(v[i - 1], v[j]);
    }
  }

 private:
  std::mt19937_64 engine_;
};

}  // namespace halfback::sim
