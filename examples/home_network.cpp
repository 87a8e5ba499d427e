// Home access network scenario (§4.2.2): fetch a short flow from servers
// at various distances through four residential access profiles, Halfback
// vs TCP — the paper's "does this help real users?" experiment.
//
//   $ ./examples/home_network [flow_kb]
//
// Exits 1 if any trial's invariant auditor reports a violation.
#include <cstdio>
#include <cstdlib>

#include "exp/homenet.h"
#include "stats/summary.h"

using namespace halfback;

int main(int argc, char** argv) {
  const std::uint64_t flow_bytes =
      (argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 100) * 1000;

  exp::HomeNetConfig config;
  config.server_count = 40;
  config.flow_bytes = flow_bytes;
  exp::HomeNetEnv env{config};

  std::printf("fetching %llu KB from %d simulated servers (RTTs %0.f-%0.f ms)\n\n",
              static_cast<unsigned long long>(flow_bytes / 1000),
              config.server_count, env.server_rtts().front().to_ms(),
              env.server_rtts().back().to_ms());

  std::printf("%-22s %10s %16s %14s %12s\n", "access profile", "scheme",
              "median FCT (ms)", "p90 FCT (ms)", "vs TCP");
  std::uint64_t violations = 0;
  for (const exp::HomeNetProfile& profile : exp::home_profiles()) {
    stats::Summary tcp;
    for (const exp::TrialResult& t : env.run(schemes::Scheme::tcp, profile)) {
      tcp.add(t.record.fct().to_ms());
      violations += t.audit_violations;
    }
    stats::Summary halfback;
    for (const exp::TrialResult& t : env.run(schemes::Scheme::halfback, profile)) {
      halfback.add(t.record.fct().to_ms());
      violations += t.audit_violations;
    }
    std::printf("%-22s %10s %16.0f %14.0f %11.0f%%\n", profile.name, "halfback",
                halfback.median(), halfback.percentile(90),
                100.0 * (halfback.median() / tcp.median() - 1.0));
    std::printf("%-22s %10s %16.0f %14.0f %12s\n", "", "tcp", tcp.median(),
                tcp.percentile(90), "-");
  }
  std::printf(
      "\nAs in the paper's Fig. 9: the gain is largest on well-provisioned\n"
      "wired links (the start-up RTTs dominate) and smallest on the slow DSL\n"
      "profile, where the link itself — not TCP's start-up — is the limit.\n");
  if (violations > 0) {
    std::fprintf(stderr, "home_network: %llu invariant violation(s)\n",
                 static_cast<unsigned long long>(violations));
    return 1;
  }
  return 0;
}
