// Byte counts as a unit, not a number.
//
// Bytes is deliberately a *transparent* strong type: it converts implicitly
// to and from std::uint64_t so that interface types can carry the unit in
// their type while arithmetic-heavy call sites (workload sampling, byte
// accounting, tests) keep reading like plain integer code. The value it
// adds is at API boundaries — a `sim::Bytes flow_bytes` parameter cannot be
// confused with a count of packets or kilobytes — not in forbidding math.
#pragma once

#include <cstdint>

namespace halfback::sim {

/// An amount of data in whole bytes.
class Bytes {
 public:
  constexpr Bytes() = default;
  constexpr Bytes(std::uint64_t count) : count_{count} {}  // NOLINT(google-explicit-constructor)

  static constexpr Bytes kilobytes(double kb) {
    return Bytes{static_cast<std::uint64_t>(kb * 1e3)};
  }
  static constexpr Bytes megabytes(double mb) {
    return Bytes{static_cast<std::uint64_t>(mb * 1e6)};
  }
  static constexpr Bytes zero() { return Bytes{0}; }

  constexpr std::uint64_t count() const { return count_; }
  constexpr operator std::uint64_t() const { return count_; }  // NOLINT(google-explicit-constructor)

  /// Floating-point view for the statistics edges (mirrors Time::to_ms).
  constexpr double to_kb() const { return static_cast<double>(count_) * 1e-3; }

  constexpr bool is_zero() const { return count_ == 0; }

  Bytes& operator+=(Bytes other) {
    count_ += other.count_;
    return *this;
  }
  Bytes& operator-=(Bytes other) {
    count_ -= other.count_;
    return *this;
  }

  // Comparisons and arithmetic go through the std::uint64_t conversion; a
  // member operator<=> would make `bytes < 100` ambiguous against it.

 private:
  std::uint64_t count_ = 0;
};

namespace literals {
constexpr Bytes operator""_bytes(unsigned long long v) {
  return Bytes{static_cast<std::uint64_t>(v)};
}
constexpr Bytes operator""_kb(unsigned long long v) {
  return Bytes::kilobytes(static_cast<double>(v));
}
constexpr Bytes operator""_mb(unsigned long long v) {
  return Bytes::megabytes(static_cast<double>(v));
}
}  // namespace literals

}  // namespace halfback::sim
