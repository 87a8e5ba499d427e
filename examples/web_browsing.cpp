// Web browsing scenario (§4.4): load synthetic front pages over each
// transport scheme and compare page response times — the application-level
// view where flow-level aggressiveness turns into self-interference.
//
//   $ ./examples/web_browsing [utilization_percent]
//
// Exits 1 if any run's invariant auditor reports a violation.
#include <cstdio>
#include <cstdlib>

#include "exp/web.h"
#include "workload/web.h"

using namespace halfback;

int main(int argc, char** argv) {
  const double utilization = argc > 1 ? std::atof(argv[1]) / 100.0 : 0.30;

  // A catalog of synthetic front pages (object counts and sizes follow
  // 2015-era top-site measurements; see DESIGN.md).
  workload::WebsiteCatalog catalog{30, sim::Random{11}};

  std::printf("catalog: %zu pages, mean weight %.0f KB\n", catalog.size(),
              catalog.mean_page_bytes() / 1000.0);
  std::printf("offered load: %.0f%% of a 15 Mbps access bottleneck\n\n",
              100.0 * utilization);

  // Poisson page requests at the chosen utilization.
  sim::Random rng{13};
  auto requests = workload::make_web_schedule(
      catalog, utilization, sim::DataRate::megabits_per_second(15),
      sim::Time::seconds(30), rng);

  std::printf("%-10s %18s %18s %14s %12s\n", "scheme", "mean response (s)",
              "p95 response (s)", "object FCT(ms)", "timeouts/obj");
  for (schemes::Scheme scheme :
       {schemes::Scheme::tcp, schemes::Scheme::tcp10, schemes::Scheme::jumpstart,
        schemes::Scheme::halfback}) {
    exp::WebRunOutcome outcome = exp::WebRunner{/*seed=*/1}.run(scheme, catalog, requests);
    if (outcome.audit_violations > 0) {
      std::fprintf(stderr, "web_browsing: %llu invariant violation(s) under %s\n",
                   static_cast<unsigned long long>(outcome.audit_violations),
                   schemes::name(scheme));
      return 1;
    }

    // p95 by sorting response times.
    std::vector<double> times;
    for (const exp::PageResult& p : outcome.pages) {
      times.push_back(p.response_time().to_seconds());
    }
    std::sort(times.begin(), times.end());
    const double p95 = times.empty() ? 0.0 : times[times.size() * 95 / 100];

    std::printf("%-10s %18.2f %18.2f %14.0f %12.2f\n", schemes::name(scheme),
                outcome.mean_response_s(), p95, outcome.flow_stats.mean_fct_ms,
                outcome.flow_stats.mean_timeouts);
  }
  std::printf(
      "\nA page request fans out into up to 6 concurrent short flows, so an\n"
      "aggressive scheme competes with *itself*: at moderate utilization\n"
      "JumpStart's reactive-only recovery makes it slower than plain TCP\n"
      "(the paper's §4.4 result), while Halfback's ROPR recovers the burst\n"
      "losses without waiting for timeouts.\n");
  return 0;
}
