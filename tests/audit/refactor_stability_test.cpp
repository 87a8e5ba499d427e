// Refactor-stability anchors: golden trace hashes captured from the seed
// implementation (std::function event queue, per-hop packet allocation)
// before the intrusive-event/packet-pool refactor. The refactor — and any
// future scheduling-layer change — must keep same-seed runs bit-identical:
// every event sequence number, dispatch order, and packet uid feeds the
// hash, so a single reordered or extra schedule() call shows up here.
//
// If one of these fails after an intentional semantic change to the
// schemes or workloads, re-capture the constants and say so in the PR; if
// it fails after a "pure" performance or refactoring change, the change is
// not pure.
#include <gtest/gtest.h>

#include "exp/emulab.h"
#include "exp/planetlab.h"
#include "schemes/scheme.h"
#include "workload/flow_schedule.h"

namespace halfback::exp {
namespace {

// Captured from the seed build (commit 624a883) with the configs below.
constexpr std::uint64_t kGoldenPlanetLabTcp = 0xe6e86e6f4b6fd07dULL;
constexpr std::uint64_t kGoldenPlanetLabHalfback = 0xc1ea3c0a33978304ULL;
constexpr std::uint64_t kGoldenPlanetLabRc3 = 0xa9ca10dd2bef1ccaULL;
constexpr std::uint64_t kGoldenEmulabHalfback = 0xf36e16201b236f8aULL;

PlanetLabEnv golden_env() {
  PlanetLabConfig config;
  config.pair_count = 4;
  config.seed = 7;
  config.per_trial_timeout = sim::Time::seconds(60);
  return PlanetLabEnv{config};
}

TEST(RefactorStability, PlanetLabTraceHashesMatchSeedGolden) {
  const PlanetLabEnv env = golden_env();
  const PathSample& path = env.paths().front();

  const TrialResult tcp = env.run_one(schemes::Scheme::tcp, path, 1234);
  EXPECT_EQ(tcp.audit_violations, 0u);
  EXPECT_EQ(tcp.trace_hash, kGoldenPlanetLabTcp);

  const TrialResult halfback = env.run_one(schemes::Scheme::halfback, path, 1234);
  EXPECT_EQ(halfback.audit_violations, 0u);
  EXPECT_EQ(halfback.trace_hash, kGoldenPlanetLabHalfback);

  const TrialResult rc3 = env.run_one(schemes::Scheme::rc3, path, 1234);
  EXPECT_EQ(rc3.audit_violations, 0u);
  EXPECT_EQ(rc3.trace_hash, kGoldenPlanetLabRc3);
}

TEST(RefactorStability, EmulabTraceHashMatchesSeedGolden) {
  EmulabRunner::Config config;
  config.seed = 5;
  config.dumbbell.sender_count = 4;
  config.dumbbell.receiver_count = 4;
  config.drain = sim::Time::seconds(20);

  std::vector<WorkloadPart> parts(1);
  parts[0].scheme = schemes::Scheme::halfback;
  for (int i = 0; i < 6; ++i) {
    parts[0].schedule.push_back(workload::FlowArrival{
        sim::Time::milliseconds(50.0 * i), /*bytes=*/100'000});
  }

  const RunResult run = EmulabRunner{config}.run(parts);
  EXPECT_EQ(run.audit_violations, 0u);
  EXPECT_EQ(run.flows.size(), 6u);
  EXPECT_EQ(run.trace_hash, kGoldenEmulabHalfback);
}

}  // namespace
}  // namespace halfback::exp
