// Per-seed determinism: the audit trace hash must be reproduced exactly by
// a second run with the same seed, and real experiment runs must be clean.
#include <gtest/gtest.h>

#include "exp/emulab.h"
#include "exp/planetlab.h"
#include "schemes/scheme.h"
#include "workload/flow_schedule.h"

namespace halfback::exp {
namespace {

PlanetLabEnv small_env() {
  PlanetLabConfig config;
  config.pair_count = 4;
  config.seed = 7;
  config.per_trial_timeout = sim::Time::seconds(60);
  return PlanetLabEnv{config};
}

TEST(DeterminismTest, SameSeedPlanetLabTrialsProduceIdenticalTraceHashes) {
  const PlanetLabEnv env = small_env();
  const PathSample& path = env.paths().front();

  const TrialResult a = env.run_one(schemes::Scheme::halfback, path, 1234);
  const TrialResult b = env.run_one(schemes::Scheme::halfback, path, 1234);

  EXPECT_TRUE(a.finished);
  EXPECT_EQ(a.audit_violations, 0u);
  EXPECT_EQ(b.audit_violations, 0u);
  EXPECT_NE(a.trace_hash, 0u);
  EXPECT_EQ(a.trace_hash, b.trace_hash);
}

TEST(DeterminismTest, DifferentPathsProduceDifferentTraceHashes) {
  const PlanetLabEnv env = small_env();
  ASSERT_GE(env.paths().size(), 2u);

  const TrialResult a = env.run_one(schemes::Scheme::halfback, env.paths()[0], 1234);
  const TrialResult b = env.run_one(schemes::Scheme::halfback, env.paths()[1], 1234);

  // Distinct topologies drive distinct packet traces; a hash collision here
  // would mean the hash is not actually mixing the trace.
  EXPECT_NE(a.trace_hash, b.trace_hash);
}

TEST(DeterminismTest, AllSchemesRunAuditCleanOnPlanetLabPaths) {
  const PlanetLabEnv env = small_env();
  const PathSample& path = env.paths().front();

  for (schemes::Scheme scheme :
       {schemes::Scheme::tcp, schemes::Scheme::reactive, schemes::Scheme::proactive,
        schemes::Scheme::halfback, schemes::Scheme::halfback_forward,
        schemes::Scheme::rc3}) {
    const TrialResult r = env.run_one(scheme, path, 99);
    EXPECT_EQ(r.audit_violations, 0u)
        << "scheme " << static_cast<int>(scheme) << " violated an invariant";
    EXPECT_NE(r.trace_hash, 0u);
  }
}

TEST(DeterminismTest, SameSeedEmulabRunsProduceIdenticalTraceHashes) {
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

  const RunResult a = EmulabRunner{config}.run(parts);
  const RunResult b = EmulabRunner{config}.run(parts);

  EXPECT_EQ(a.audit_violations, 0u);
  EXPECT_EQ(b.audit_violations, 0u);
  EXPECT_NE(a.trace_hash, 0u);
  EXPECT_EQ(a.trace_hash, b.trace_hash);
  EXPECT_EQ(a.flows.size(), 6u);
}

}  // namespace
}  // namespace halfback::exp
