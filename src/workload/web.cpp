#include "workload/web.h"

#include <algorithm>
#include <cmath>

namespace halfback::workload {

namespace {
/// Object count per page ~ lognormal(median 30, sigma 0.7); object size ~
/// lognormal(median 14 KB, sigma 1.3). 2015-era front pages carry ~1.5-2 MB
/// over a few dozen objects.
constexpr double kObjectsMedian = 30.0;
constexpr double kObjectsSigma = 0.7;
constexpr double kObjectBytesMedian = 14'000.0;
constexpr double kObjectBytesSigma = 1.3;
}  // namespace

WebsiteCatalog::WebsiteCatalog(int site_count, sim::Random rng) {
  pages_.reserve(static_cast<std::size_t>(site_count));
  for (int i = 0; i < site_count; ++i) {
    WebPage page;
    const double raw_count = rng.lognormal(std::log(kObjectsMedian), kObjectsSigma);
    const int count = std::clamp(static_cast<int>(std::lround(raw_count)),
                                 kObjectsMin, kObjectsMax);
    page.object_bytes.reserve(static_cast<std::size_t>(count));
    for (int j = 0; j < count; ++j) {
      const double raw_bytes =
          rng.lognormal(std::log(kObjectBytesMedian), kObjectBytesSigma);
      const auto bytes = static_cast<std::uint64_t>(raw_bytes);
      page.object_bytes.push_back(
          std::clamp(bytes, kObjectBytesMin.count(), kObjectBytesMax.count()));
    }
    pages_.push_back(std::move(page));
  }
}

double WebsiteCatalog::mean_page_bytes() const {
  if (pages_.empty()) return 0.0;
  double total = 0.0;
  for (const WebPage& page : pages_) total += static_cast<double>(page.total_bytes());
  return total / static_cast<double>(pages_.size());
}

std::vector<WebRequest> make_web_schedule(const WebsiteCatalog& catalog,
                                          double target_utilization,
                                          sim::DataRate bottleneck,
                                          sim::Time duration, sim::Random& rng) {
  std::vector<WebRequest> schedule;
  const double pages_per_second =
      target_utilization * bottleneck.bytes_per_second() / catalog.mean_page_bytes();
  const double mean_interarrival_s = 1.0 / pages_per_second;
  sim::Time t;
  while (true) {
    t += sim::Time::seconds(rng.exponential(mean_interarrival_s));
    if (t >= duration) break;
    schedule.push_back(WebRequest{t, catalog.sample_index(rng)});
  }
  return schedule;
}

}  // namespace halfback::workload
