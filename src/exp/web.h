// Application-level web benchmark (§4.4, Fig. 16): page requests fan out
// into concurrent short flows, as a browser does.
#pragma once

#include <cstdint>
#include <vector>

#include "exp/rig.h"
#include "workload/web.h"

namespace halfback::exp {

/// Outcome of one page request.
struct PageResult {
  sim::Time requested;
  sim::Time completed;
  bool finished = false;
  std::size_t objects = 0;
  std::uint64_t bytes = 0;

  sim::Time response_time() const { return completed - requested; }
};

/// Aggregate statistics over the individual object flows of a web run.
struct WebFlowStats {
  std::size_t flows = 0;
  double mean_fct_ms = 0.0;  // lint: unit-ok(statistics edge: report column in ms)
  double mean_timeouts = 0.0;
  double mean_normal_retx = 0.0;
  double mean_proactive_retx = 0.0;
};

/// Outcome of one web run: per-page results plus object-flow aggregates.
struct WebRunOutcome : RunRecord {
  std::vector<PageResult> pages;
  WebFlowStats flow_stats;

  double mean_response_s() const;
  std::size_t unfinished_pages() const;
};

/// Runs a schedule of page requests with one scheme over the default
/// dumbbell. The HTML document is fetched first on one connection; then up
/// to six concurrent lanes (Chrome's per-host default) fetch the remaining
/// objects, each lane back to back. Pages still open 30 s after the last
/// request are censored.
class WebRunner {
 public:
  explicit WebRunner(std::uint64_t seed) : seed_{seed} {}

  WebRunOutcome run(schemes::Scheme scheme, const workload::WebsiteCatalog& catalog,
                    const std::vector<workload::WebRequest>& requests);

 private:
  std::uint64_t seed_;
};

}  // namespace halfback::exp
