// Hub acceptance contract: installing telemetry is purely observational.
// The golden same-seed trace hashes shared with
// tests/audit/refactor_stability_test.cpp (tests/support/golden.h) must
// stay bit-identical with a Hub recording, faults on or off — and the hub
// must actually have recorded something, so the invariance is not vacuous.
#include "telemetry/hub.h"

#include <gtest/gtest.h>

#include "exp/emulab.h"
#include "exp/planetlab.h"
#include "support/golden.h"
#include "telemetry/manifest.h"

namespace halfback::telemetry {
namespace {

using exp::EmulabRunner;
using exp::TrialResult;
using testing::expect_golden;
using testing::golden_emulab_config;
using testing::golden_emulab_parts;

TEST(HubInvariance, EmulabGoldenHashUnchangedWithHubInstalled) {
  Hub hub;
  EmulabRunner::Config config = golden_emulab_config();
  config.telemetry = &hub;
  const exp::RunResult run = EmulabRunner{config}.run(golden_emulab_parts());
  EXPECT_EQ(run.audit_violations, 0u);
  expect_golden("kGoldenEmulabHalfback", run.trace_hash,
                testing::kGoldenEmulabHalfback);
  // Not vacuous: the hub observed the run.
  EXPECT_GT(hub.sim().events_dispatched->value(), 0u);
  EXPECT_EQ(hub.transport().flows_started->value(), 6u);
  EXPECT_EQ(hub.transport().flows_completed->value(), 6u);
  EXPECT_GT(hub.transport().rtt->count(), 0u);
  EXPECT_GT(hub.recorder().tape_count(), 0u);
}

TEST(HubInvariance, PlanetLabGoldenHashUnchangedWithHubInstalled) {
  const exp::PlanetLabEnv env = testing::golden_planetlab_env();
  const exp::PathSample& path = env.paths().front();

  Hub hub;
  const TrialResult with_hub =
      env.run_one(schemes::Scheme::halfback, path, 1234, &hub);
  EXPECT_EQ(with_hub.audit_violations, 0u);
  expect_golden("kGoldenPlanetLabHalfback", with_hub.trace_hash,
                testing::kGoldenPlanetLabHalfback);
  EXPECT_GT(hub.sim().events_dispatched->value(), 0u);
  EXPECT_EQ(hub.transport().flows_completed->value(), 1u);
}

TEST(HubInvariance, FaultyRunHashUnchangedWithHubInstalled) {
  // No golden constant for this config; compare a bare run against an
  // instrumented one directly.
  EmulabRunner::Config config = golden_emulab_config();
  config.faults.gilbert_elliott.p_good_to_bad = 0.02;
  config.faults.corrupt.probability = 0.02;
  const exp::RunResult bare = EmulabRunner{config}.run(golden_emulab_parts());

  Hub hub;
  config.telemetry = &hub;
  const exp::RunResult taped = EmulabRunner{config}.run(golden_emulab_parts());
  EXPECT_EQ(bare.trace_hash, taped.trace_hash);
  EXPECT_EQ(bare.audit_violations, 0u);
  EXPECT_EQ(taped.audit_violations, 0u);
  // record_injector() folded the per-cause totals into the fault counters.
  EXPECT_EQ(hub.fault().packets_seen->value(), taped.faults.packets_seen);
  EXPECT_EQ(hub.fault().drops->value(), taped.faults.total_drops());
  EXPECT_GT(hub.fault().packets_seen->value(), 0u);
}

TEST(Hub, SnapshotRegistersPerLinkGauges) {
  Hub hub;
  EmulabRunner::Config config = golden_emulab_config();
  config.telemetry = &hub;
  EmulabRunner{config}.run(golden_emulab_parts());
  // The 4x4 dumbbell has per-host access links plus the bottleneck pair;
  // link 0's gauges must exist and utilization must be a sane fraction.
  const auto* util = hub.registry().find("net.link.0.utilization");
  ASSERT_NE(util, nullptr);
  const double u = hub.registry().gauge_at(*util).value();
  EXPECT_GE(u, 0.0);
  EXPECT_LE(u, 1.0);
  EXPECT_NE(hub.registry().find("net.link.0.queue_drops"), nullptr);
  EXPECT_NE(hub.registry().find("net.link.0.queue_max_backlog_bytes"), nullptr);
  // And the end-of-run clock gauge was stamped.
  EXPECT_GT(hub.sim().sim_end_ns->value(), 0.0);
}

TEST(Manifest, DigestIsStableAcrossRunsAndSensitiveToSeed) {
  const auto run_manifest = [](std::uint64_t seed) {
    Hub hub;
    EmulabRunner::Config config = golden_emulab_config();
    config.seed = seed;
    config.telemetry = &hub;
    EmulabRunner runner{config};
    const exp::RunResult run = runner.run(golden_emulab_parts());
    RunManifest m = runner.manifest(run, "emulab");
    m.scheme = "halfback";
    return m;
  };
  const RunManifest a = run_manifest(5);
  const RunManifest b = run_manifest(5);
  const RunManifest c = run_manifest(6);
  EXPECT_EQ(a.config_digest, b.config_digest);
  EXPECT_EQ(a.trace_hash, b.trace_hash);
  EXPECT_EQ(a.events_dispatched, b.events_dispatched);
  EXPECT_NE(a.config_digest, c.config_digest);
  EXPECT_EQ(a.seed, 5u);
  EXPECT_EQ(a.experiment, "emulab");
  // Wall time is the bench layer's job; src/ must leave it zero.
  EXPECT_EQ(a.wall_time_seconds, 0.0);
}

TEST(HubSpans, HalfbackRunRecordsFlowSpanTrees) {
  Hub hub;
  EmulabRunner::Config config = golden_emulab_config();
  config.telemetry = &hub;
  EmulabRunner{config}.run(golden_emulab_parts());

  const SpanRecorder& spans = hub.spans();
  ASSERT_GT(spans.size(), 0u);
  EXPECT_EQ(spans.dropped(), 0u);
  // Each of the 6 flows gets a root flow span plus at least handshake,
  // pacing, and blast children, all parented on the root and closed.
  std::size_t roots = 0;
  std::size_t handshakes = 0;
  std::size_t pacing = 0;
  std::size_t blast = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans.at(i);
    EXPECT_FALSE(s.open) << "span " << s.id << " left open";
    EXPECT_LE(s.begin, s.end);
    if (s.kind == SpanKind::flow) {
      EXPECT_EQ(s.parent, 0u);
      ++roots;
      continue;
    }
    // Child spans point at their flow's root span.
    ASSERT_NE(s.parent, 0u);
    EXPECT_EQ(spans.at(s.parent - 1).kind, SpanKind::flow);
    EXPECT_EQ(spans.at(s.parent - 1).flow, s.flow);
    if (s.kind == SpanKind::handshake) ++handshakes;
    if (s.kind == SpanKind::pacing) ++pacing;
    if (s.kind == SpanKind::blast) ++blast;
  }
  EXPECT_EQ(roots, 6u);
  EXPECT_EQ(handshakes, 6u);
  EXPECT_EQ(pacing, 6u);
  // Halfback re-enters the blast phase after recovery episodes, so each
  // flow contributes at least one blast span (possibly more).
  EXPECT_GE(blast, 6u);
}

}  // namespace
}  // namespace halfback::telemetry
