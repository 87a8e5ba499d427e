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

#include <array>

#include "exp/emulab.h"
#include "exp/homenet.h"
#include "exp/parking_lot.h"
#include "exp/planetlab.h"
#include "exp/trace.h"
#include "exp/web.h"
#include "net/topology.h"
#include "schemes/scheme.h"
#include "workload/flow_schedule.h"
#include "workload/web.h"

namespace halfback::exp {
namespace {

// Captured from the seed build (commit 624a883) with the configs below.
constexpr std::uint64_t kGoldenPlanetLabTcp = 0xe6e86e6f4b6fd07dULL;
constexpr std::uint64_t kGoldenPlanetLabHalfback = 0xc1ea3c0a33978304ULL;
constexpr std::uint64_t kGoldenPlanetLabRc3 = 0xa9ca10dd2bef1ccaULL;
constexpr std::uint64_t kGoldenEmulabHalfback = 0xf36e16201b236f8aULL;

// Captured when run_trace, WebRunner and HomeNetEnv moved onto exp::Rig.
// The trace and web drivers ran unaudited before; the previous tree with
// an auditor added to both gives these same hashes. HomeNet's watched flow
// now starts on a t=0 event, as PlanetLab's does, which moved its hashes
// but no FCT.
constexpr std::array<std::uint64_t, 4> kGoldenTrace{
    0x377baaf71cfab0aeULL,   // optimal
    0xfdc00bfc6cee98d8ULL,   // halfback
    0xfe30a0c5b91a1fd6ULL,   // single-tcp
    0xe282b2dae3a7a9e3ULL};  // two-tcp-halves
constexpr std::uint64_t kGoldenWebHalfback = 0x6625da7839adf16fULL;
constexpr std::array<std::uint64_t, 4> kGoldenHomeNetWifiHalfback{
    0x06b74e486a9c5b8bULL, 0xacfcb23011596f8fULL, 0x6d85aa64614d962dULL,
    0x237e328dd73ba11cULL};

// Captured before the AQM and parking-lot tuning became named constants:
// the two AQM bottlenecks and the multi-hop chain had no pinned run.
constexpr std::uint64_t kGoldenRedDumbbell = 0xb08d81027c47ebc6ULL;
constexpr std::uint64_t kGoldenCoDelDumbbell = 0xbfc03b006a9d07dfULL;
constexpr std::uint64_t kGoldenParkingLot = 0xa03977ae73abfec5ULL;

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

TEST(RefactorStability, TraceHashesMatchGolden) {
  const std::array<TraceScenario, 4> scenarios{
      TraceScenario::optimal, TraceScenario::halfback, TraceScenario::single_tcp,
      TraceScenario::two_tcp_halves};
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    SCOPED_TRACE(to_string(scenarios[i]));
    const TraceResult run = run_trace(1, scenarios[i]);
    EXPECT_EQ(run.audit_violations, 0u);
    EXPECT_EQ(run.trace_hash, kGoldenTrace[i]);
  }
}

TEST(RefactorStability, WebTraceHashMatchesGolden) {
  const workload::WebsiteCatalog catalog{6, sim::Random{9}};
  std::vector<workload::WebRequest> requests;
  for (std::size_t i = 0; i < 4; ++i) {
    requests.push_back({sim::Time::seconds(1.5 * static_cast<double>(i)), i});
  }
  const WebRunOutcome run =
      WebRunner{3}.run(schemes::Scheme::halfback, catalog, requests);
  EXPECT_EQ(run.audit_violations, 0u);
  EXPECT_EQ(run.unfinished_pages(), 0u);
  EXPECT_EQ(run.trace_hash, kGoldenWebHalfback);
}

/// Eight Halfback flows started together into a 40 KB bottleneck run by
/// `queue`: enough load that the discipline drops.
RunResult loaded_aqm_run(net::QueueKind queue) {
  EmulabRunner::Config config;
  config.seed = 13;
  config.dumbbell.sender_count = 4;
  config.dumbbell.receiver_count = 4;
  config.dumbbell.bottleneck_buffer_bytes = 40'000;
  config.dumbbell.bottleneck_queue = queue;
  config.drain = sim::Time::seconds(20);
  std::vector<WorkloadPart> parts(1);
  parts[0].scheme = schemes::Scheme::halfback;
  for (int i = 0; i < 8; ++i) {
    parts[0].schedule.push_back(workload::FlowArrival{sim::Time::zero(), 100'000});
  }
  return EmulabRunner{config}.run(parts);
}

TEST(RefactorStability, RedDumbbellTraceHashMatchesGolden) {
  const RunResult run = loaded_aqm_run(net::QueueKind::red);
  EXPECT_EQ(run.audit_violations, 0u);
  EXPECT_EQ(run.unfinished_count(FlowRole::primary), 0u);
  EXPECT_GT(run.bottleneck_drops_total, 0u);
  EXPECT_EQ(run.trace_hash, kGoldenRedDumbbell);
}

TEST(RefactorStability, CoDelDumbbellTraceHashMatchesGolden) {
  const RunResult run = loaded_aqm_run(net::QueueKind::codel);
  EXPECT_EQ(run.audit_violations, 0u);
  EXPECT_EQ(run.unfinished_count(FlowRole::primary), 0u);
  EXPECT_GT(run.bottleneck_drops_total, 0u);
  EXPECT_EQ(run.trace_hash, kGoldenCoDelDumbbell);
}

TEST(RefactorStability, ParkingLotTraceHashMatchesGolden) {
  // ext_parking_lot's own run: a 3-hop chain with TCP cross traffic at 50%
  // of every hop, and a Halfback flow across the whole chain every 2 s.
  const ParkingLotResult run = run_parking_lot(
      schemes::Scheme::halfback, /*hops=*/3, /*cross_utilization=*/0.5,
      /*seed=*/1, sim::Time::seconds(6));
  EXPECT_EQ(run.audit_violations, 0u);
  EXPECT_EQ(run.flows, 3u);  // every main-path start fired
  EXPECT_EQ(run.unfinished, 0u);
  EXPECT_EQ(run.trace_hash, kGoldenParkingLot);
}

TEST(RefactorStability, HomeNetWifiTraceHashesMatchGolden) {
  // The four trials of HomeNetEnvTest.EveryTrialIsAuditedAndReproducesItsHash.
  HomeNetConfig config;
  config.server_count = 4;
  config.threads = 2;
  const auto trials =
      HomeNetEnv{config}.run(schemes::Scheme::halfback, home_profiles()[2]);
  ASSERT_EQ(trials.size(), kGoldenHomeNetWifiHalfback.size());
  for (std::size_t i = 0; i < trials.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(trials[i].audit_violations, 0u);
    EXPECT_EQ(trials[i].trace_hash, kGoldenHomeNetWifiHalfback[i]);
  }
}

}  // namespace
}  // namespace halfback::exp
