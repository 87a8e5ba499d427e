#include "gauge.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <random>
#include <stdexcept>
#include <unordered_map>

#include "report.h"

namespace perfbench {

double gauge_ms() {
  constexpr int kSteps = 20'000;
  const auto t0 = std::chrono::steady_clock::now();
  std::mt19937_64 rng{12345};
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>, std::greater<>> heap;
  std::unordered_map<std::uint64_t, std::uint64_t> map;
  std::vector<std::unique_ptr<std::uint64_t[]>> blocks(512);
  std::uint64_t sink = 0;
  for (int i = 0; i < kSteps; ++i) {
    const std::uint64_t key = rng() % 65536;
    heap.push(rng());
    if (heap.size() > 300) {
      sink += heap.top();
      heap.pop();
    }
    if (const auto it = map.find(key); it == map.end()) {
      map.emplace(key, i);
    } else {
      sink += it->second;
      map.erase(it);
    }
    const std::function<void()> call = [&sink, i] { sink += static_cast<std::uint64_t>(i); };
    call();
    auto& block = blocks[static_cast<std::size_t>(i) & 511];
    block = std::make_unique<std::uint64_t[]>(4 + (static_cast<std::size_t>(i) & 7));
    block[0] = sink;
  }
  const double ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
  // Keep the work observable so the compiler cannot drop it.
  volatile std::uint64_t keep = sink;
  (void)keep;
  return ms;
}

std::size_t SpeedScale::before_span() {
  if (samples_.empty() || since_sample_ms_ >= kSpacingMs) {
    samples_.push_back(gauge_ms());
    since_sample_ms_ = 0.0;
  }
  return samples_.size() - 1;
}

void SpeedScale::finish() {
  for (std::size_t k = 0; k < kNeighbours; ++k) samples_.push_back(gauge_ms());
  since_sample_ms_ = 0.0;
}

double SpeedScale::factor(std::size_t mark) const {
  if (mark >= samples_.size()) throw std::out_of_range("SpeedScale: no sample for this mark");
  const std::size_t lo = mark + 1 >= kNeighbours ? mark + 1 - kNeighbours : 0;
  const std::size_t hi = std::min(samples_.size(), mark + 1 + kNeighbours);
  const double around = median({samples_.begin() + static_cast<std::ptrdiff_t>(lo),
                                samples_.begin() + static_cast<std::ptrdiff_t>(hi)});
  return std::pow(kReferenceGaugeMs / around, kSensitivity);
}

}  // namespace perfbench
