// Shared PlanetLab campaign used by the Fig. 5-8 benches.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <map>
#include <vector>

#include "common.h"
#include "exp/planetlab.h"

namespace halfback::bench {

struct PlanetLabCampaign {
  exp::PlanetLabConfig config;
  std::map<schemes::Scheme, std::vector<exp::TrialResult>> trials;
};

/// Run the §4.2.1 campaign: the PlanetLab scheme set over a shared path
/// ensemble (quick: 300 pairs, full: the paper's 2600). Exits 1 if any
/// trial's invariant auditor reports a violation.
inline PlanetLabCampaign run_planetlab_campaign(const Options& opt) {
  PlanetLabCampaign campaign;
  campaign.config.pair_count = opt.pairs > 0 ? opt.pairs : (opt.full ? 2600 : 300);
  campaign.config.seed = opt.seed * 1000003;
  campaign.config.threads = opt.threads;
  exp::PlanetLabEnv env{campaign.config};
  for (schemes::Scheme scheme : schemes::planetlab_set()) {
    campaign.trials[scheme] = env.run(scheme);
    exit_on_audit_violations(campaign.trials[scheme], schemes::name(scheme));
  }
  return campaign;
}

}  // namespace halfback::bench
