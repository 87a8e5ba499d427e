// Refactor-stability anchors: golden trace hashes of one run of every
// driver (PlanetLab, Emulab, the Fig. 15 traces, web, HomeNet, the RED and
// CoDel bottlenecks and the parking-lot chain). The trace hash pins what a
// run sends, delivers and ACKs, with the sim time of every link offer and
// delivery, not the event schedule: a refactor of the event or packet core
// that fires other events for the same packets keeps every constant here,
// and one that moves a single delivery by a nanosecond changes them.
//
// If one of these fails after an intentional semantic change to the
// schemes or workloads, re-capture the constants (tests/support/golden.h
// says how) and list each in CHANGES.md; if it fails after a "pure"
// performance or refactoring change, the change is not pure.
#include <gtest/gtest.h>

#include <array>
#include <string>

#include "exp/emulab.h"
#include "exp/homenet.h"
#include "exp/parking_lot.h"
#include "exp/planetlab.h"
#include "exp/trace.h"
#include "exp/web.h"
#include "net/topology.h"
#include "schemes/scheme.h"
#include "support/golden.h"
#include "workload/flow_schedule.h"
#include "workload/web.h"

namespace halfback::exp {
namespace {

using testing::expect_golden;
using testing::kGoldenEmulabHalfback;
using testing::kGoldenPlanetLabHalfback;

// All re-pinned together when the trace hash stopped mixing each dispatch's
// (time, seq) and began mixing each link offer's and delivery's sim time.
// kGoldenEmulabHalfback and kGoldenPlanetLabHalfback live in
// tests/support/golden.h, which the hub's invariance tests share.
constexpr std::uint64_t kGoldenPlanetLabTcp = 0xb071cf8d25c27a84ULL;
constexpr std::uint64_t kGoldenPlanetLabRc3 = 0x815a13a345f37b2fULL;
constexpr std::array<std::uint64_t, 4> kGoldenTrace{
    0x2cb83a2ee4f8d281ULL,   // optimal
    0xb6d66c3d63dc4dabULL,   // halfback
    0x79d1fe5a35b47349ULL,   // single-tcp
    0xbe81354131d1cc71ULL};  // two-tcp-halves
constexpr std::uint64_t kGoldenWebHalfback = 0x6a29d511fd052209ULL;
constexpr std::array<std::uint64_t, 4> kGoldenHomeNetWifiHalfback{
    0x358b382c78f4cd5fULL, 0x8f0308939fd63b90ULL, 0x24db4f6c8b49b226ULL,
    0xe3d90c3b53514bd7ULL};
constexpr std::uint64_t kGoldenRedDumbbell = 0xcce752c958323386ULL;
constexpr std::uint64_t kGoldenCoDelDumbbell = 0xdb195e206d1d5d4bULL;
constexpr std::uint64_t kGoldenParkingLot = 0xcd0456335c843774ULL;

/// `name[i]`, for an array element's capture line.
std::string element(const char* name, std::size_t i) {
  return std::string{name} + "[" + std::to_string(i) + "]";
}

TEST(RefactorStability, PlanetLabTraceHashesMatchSeedGolden) {
  const PlanetLabEnv env = testing::golden_planetlab_env();
  const PathSample& path = env.paths().front();

  const TrialResult tcp = env.run_one(schemes::Scheme::tcp, path, 1234);
  EXPECT_EQ(tcp.audit_violations, 0u);
  expect_golden("kGoldenPlanetLabTcp", tcp.trace_hash, kGoldenPlanetLabTcp);

  const TrialResult halfback = env.run_one(schemes::Scheme::halfback, path, 1234);
  EXPECT_EQ(halfback.audit_violations, 0u);
  expect_golden("kGoldenPlanetLabHalfback", halfback.trace_hash,
                kGoldenPlanetLabHalfback);

  const TrialResult rc3 = env.run_one(schemes::Scheme::rc3, path, 1234);
  EXPECT_EQ(rc3.audit_violations, 0u);
  expect_golden("kGoldenPlanetLabRc3", rc3.trace_hash, kGoldenPlanetLabRc3);
}

TEST(RefactorStability, EmulabTraceHashMatchesSeedGolden) {
  const RunResult run =
      EmulabRunner{testing::golden_emulab_config()}.run(testing::golden_emulab_parts());
  EXPECT_EQ(run.audit_violations, 0u);
  EXPECT_EQ(run.flows.size(), 6u);
  expect_golden("kGoldenEmulabHalfback", run.trace_hash, kGoldenEmulabHalfback);
}

TEST(RefactorStability, TraceHashesMatchGolden) {
  const std::array<TraceScenario, 4> scenarios{
      TraceScenario::optimal, TraceScenario::halfback, TraceScenario::single_tcp,
      TraceScenario::two_tcp_halves};
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    SCOPED_TRACE(to_string(scenarios[i]));
    const TraceResult run = run_trace(1, scenarios[i]);
    EXPECT_EQ(run.audit_violations, 0u);
    expect_golden(element("kGoldenTrace", i).c_str(), run.trace_hash, kGoldenTrace[i]);
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
  expect_golden("kGoldenWebHalfback", run.trace_hash, kGoldenWebHalfback);
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
  expect_golden("kGoldenRedDumbbell", run.trace_hash, kGoldenRedDumbbell);
}

TEST(RefactorStability, CoDelDumbbellTraceHashMatchesGolden) {
  const RunResult run = loaded_aqm_run(net::QueueKind::codel);
  EXPECT_EQ(run.audit_violations, 0u);
  EXPECT_EQ(run.unfinished_count(FlowRole::primary), 0u);
  EXPECT_GT(run.bottleneck_drops_total, 0u);
  expect_golden("kGoldenCoDelDumbbell", run.trace_hash, kGoldenCoDelDumbbell);
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
  expect_golden("kGoldenParkingLot", run.trace_hash, kGoldenParkingLot);
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
    expect_golden(element("kGoldenHomeNetWifiHalfback", i).c_str(),
                  trials[i].trace_hash, kGoldenHomeNetWifiHalfback[i]);
  }
}

}  // namespace
}  // namespace halfback::exp
