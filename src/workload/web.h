// Web workload model for the application-level benchmark (§4.4, Fig. 16).
//
// The paper replays the front pages of the 100 most popular web sites,
// delivering each page's objects over concurrent connections as Chrome
// would. The site data is not available offline, so we synthesize a
// catalog of 100 pages whose object-count and object-size dispersion match
// published top-site measurements (see DESIGN.md); what Fig. 16 depends on
// is the burst of concurrent short flows per request, which this preserves.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/bytes.h"
#include "sim/data_rate.h"
#include "sim/random.h"
#include "sim/time.h"
#include "workload/flow_size.h"

namespace halfback::workload {

/// One front page: the sizes of its fetchable objects, in the order the
/// browser requests them.
struct WebPage {
  std::vector<std::uint64_t> object_bytes;

  std::uint64_t total_bytes() const {
    std::uint64_t sum = 0;
    for (std::uint64_t b : object_bytes) sum += b;
    return sum;
  }
};

/// A fixed catalog of synthetic front pages.
class WebsiteCatalog {
 public:
  /// Each page's object count and each object's size are lognormal draws
  /// clamped to these bounds.
  static constexpr int kObjectsMin = 3;
  static constexpr int kObjectsMax = 150;
  static constexpr sim::Bytes kObjectBytesMin = 200;
  static constexpr sim::Bytes kObjectBytesMax = 1'000'000;

  /// `site_count` front pages (the paper replays 100).
  WebsiteCatalog(int site_count, sim::Random rng);

  const WebPage& page(std::size_t index) const { return pages_.at(index); }
  std::size_t size() const { return pages_.size(); }

  /// Mean bytes per page over the catalog (for utilization pacing).
  double mean_page_bytes() const;

  /// Pick a page uniformly at random.
  std::size_t sample_index(sim::Random& rng) const {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pages_.size()) - 1));
  }

 private:
  std::vector<WebPage> pages_;
};

/// One planned page request.
struct WebRequest {
  sim::Time at;
  std::size_t page_index = 0;
};

/// Poisson page requests paced to a target utilization (given the catalog's
/// mean page weight). Throws std::invalid_argument unless the utilization
/// is positive and finite.
std::vector<WebRequest> make_web_schedule(const WebsiteCatalog& catalog,
                                          double target_utilization,
                                          sim::DataRate bottleneck,
                                          sim::Time duration, sim::Random& rng);

}  // namespace halfback::workload
