// Smoke + shape tests for the PlanetLab / home-network / web / trace
// experiment environments (scaled-down configurations).
#include <gtest/gtest.h>

#include <stdexcept>

#include "exp/censor.h"
#include "exp/emulab.h"
#include "exp/homenet.h"
#include "exp/planetlab.h"
#include "exp/trace.h"
#include "exp/web.h"
#include "sim/budget.h"
#include "sim/timer.h"
#include "stats/summary.h"

namespace halfback::exp {
namespace {

using namespace halfback::sim::literals;

stats::Summary fct_ms(const std::vector<TrialResult>& trials) {
  stats::Summary s;
  for (const TrialResult& t : trials) s.add(t.record.fct().to_ms());
  return s;
}

TEST(PlanetLabEnvTest, PathsAreWithinDocumentedRanges) {
  PlanetLabConfig config;
  config.pair_count = 200;
  PlanetLabEnv env{config};
  ASSERT_EQ(env.paths().size(), 200u);
  for (const PathSample& p : env.paths()) {
    EXPECT_GE(p.rtt, sim::Time::milliseconds(0.2));
    EXPECT_LE(p.rtt, sim::Time::milliseconds(400));
    EXPECT_GE(p.bottleneck.bps(), 8e6);
    EXPECT_LE(p.bottleneck.bps(), 1e9);
    EXPECT_GE(p.buffer_bytes, 6'000u);
  }
}

TEST(PlanetLabEnvTest, EnsembleIsDeterministic) {
  PlanetLabConfig config;
  config.pair_count = 50;
  PlanetLabEnv a{config};
  PlanetLabEnv b{config};
  for (std::size_t i = 0; i < a.paths().size(); ++i) {
    EXPECT_EQ(a.paths()[i].rtt, b.paths()[i].rtt);
    EXPECT_EQ(a.paths()[i].buffer_bytes, b.paths()[i].buffer_bytes);
  }
}

TEST(PlanetLabEnvTest, HalfbackBeatsTcpAcrossEnsemble) {
  PlanetLabConfig config;
  config.pair_count = 60;
  config.threads = 4;
  PlanetLabEnv env{config};
  auto halfback = env.run(schemes::Scheme::halfback);
  auto tcp = env.run(schemes::Scheme::tcp);
  ASSERT_EQ(halfback.size(), 60u);
  // §4.2.1: Halfback's FCT is ~half TCP's on average.
  EXPECT_LT(fct_ms(halfback).mean() * 1.5, fct_ms(tcp).mean());
  // Nearly all trials must finish.
  int finished = 0;
  for (const auto& t : halfback) finished += t.finished ? 1 : 0;
  EXPECT_GE(finished, 58);
}

TEST(PlanetLabEnvTest, SomeButNotAllTrialsSeeLoss) {
  // §4.2.1: ~25% of PlanetLab trials saw loss (aggressive schemes).
  PlanetLabConfig config;
  config.pair_count = 100;
  config.threads = 4;
  PlanetLabEnv env{config};
  auto trials = env.run(schemes::Scheme::halfback);
  int lossy = 0;
  for (const auto& t : trials) lossy += t.saw_loss ? 1 : 0;
  EXPECT_GT(lossy, 5);
  EXPECT_LT(lossy, 70);
}

TEST(HomeNetEnvTest, ProfilesExist) {
  auto profiles = home_profiles();
  ASSERT_EQ(profiles.size(), 4u);
  EXPECT_STREQ(profiles[0].name, "comcast-wired");
}

TEST(HomeNetEnvTest, HalfbackBeatsTcpOnComcast) {
  HomeNetConfig config;
  config.server_count = 30;
  config.threads = 4;
  HomeNetEnv env{config};
  auto halfback = env.run(schemes::Scheme::halfback, home_profiles()[0]);
  auto tcp = env.run(schemes::Scheme::tcp, home_profiles()[0]);
  // §4.2.2: ~50% median FCT reduction on the wired 25 Mbps profile.
  EXPECT_LT(fct_ms(halfback).median(), fct_ms(tcp).median() * 0.75);
}

TEST(HomeNetEnvTest, EveryTrialIsAuditedAndReproducesItsHash) {
  // Each trial runs under its own invariant auditor (as PlanetLabEnv's
  // do): a clean audit is a nonzero trace hash with no violations, and a
  // same-seed rerun reproduces every hash. The lossy WiFi profile drives
  // drops and retransmissions through the audited paths.
  HomeNetConfig config;
  config.server_count = 4;
  config.threads = 2;
  const HomeNetProfile& wifi = home_profiles()[2];
  const auto first = HomeNetEnv{config}.run(schemes::Scheme::halfback, wifi);
  const auto again = HomeNetEnv{config}.run(schemes::Scheme::halfback, wifi);
  ASSERT_EQ(first.size(), 4u);
  ASSERT_EQ(again.size(), first.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_NE(first[i].trace_hash, 0u) << "trial " << i;
    EXPECT_EQ(first[i].audit_violations, 0u) << "trial " << i;
    EXPECT_EQ(again[i].trace_hash, first[i].trace_hash) << "trial " << i;
  }
  // Distinct servers are distinct runs.
  EXPECT_NE(first[0].trace_hash, first[1].trace_hash);
}

TEST(HomeNetEnvTest, LowBandwidthProfileShrinksTheGain) {
  HomeNetConfig config;
  config.server_count = 30;
  config.threads = 4;
  HomeNetEnv env{config};
  const HomeNetProfile& comcast = home_profiles()[0];
  const HomeNetProfile& dsl = home_profiles()[3];
  auto h_fast = env.run(schemes::Scheme::halfback, comcast);
  auto t_fast = env.run(schemes::Scheme::tcp, comcast);
  auto h_slow = env.run(schemes::Scheme::halfback, dsl);
  auto t_slow = env.run(schemes::Scheme::tcp, dsl);
  const double gain_fast = 1.0 - fct_ms(h_fast).median() / fct_ms(t_fast).median();
  const double gain_slow = 1.0 - fct_ms(h_slow).median() / fct_ms(t_slow).median();
  // §4.2.2: AT&T's low-bandwidth link shows the smallest improvement.
  EXPECT_LT(gain_slow, gain_fast);
  EXPECT_GT(gain_fast, 0.2);
}

TEST(DeadlineCensoringTest, BothEnvironmentsChargeUnfinishedTrialsTheFullTimeout) {
  // Regression for the unified censor-at-deadline semantics (exp/censor.h):
  // PlanetLabEnv and HomeNetEnv must account for an unfinished flow
  // identically — completion censored AT the deadline, so a censored trial
  // contributes exactly the timeout to FCT aggregates, never whatever
  // instant its queue happened to drain at.
  const sim::Time timeout = sim::Time::milliseconds(10);
  const sim::Bytes huge_flow = 50'000'000;  // cannot finish inside 10 ms

  PlanetLabConfig pl;
  pl.pair_count = 20;
  pl.flow_bytes = huge_flow;
  pl.per_trial_timeout = timeout;
  pl.threads = 2;
  const auto pl_trials = PlanetLabEnv{pl}.run(schemes::Scheme::tcp);

  HomeNetConfig hn;
  hn.server_count = 20;
  hn.flow_bytes = huge_flow;
  hn.per_trial_timeout = timeout;
  hn.threads = 2;
  const auto hn_trials =
      HomeNetEnv{hn}.run(schemes::Scheme::tcp, home_profiles()[0]);

  ASSERT_EQ(pl_trials.size(), 20u);
  ASSERT_EQ(hn_trials.size(), 20u);
  for (const auto* trials : {&pl_trials, &hn_trials}) {
    for (const TrialResult& t : *trials) {
      ASSERT_FALSE(t.finished);
      EXPECT_FALSE(t.record.completed);
      EXPECT_EQ(t.record.fct(), timeout);
    }
  }
}

TEST(DeadlineCensoringTest, ATrippedBudgetEndsTheDrive) {
  // Regression: once the budget trips, every later run_until slice returns
  // at once with stopped() set and the clock unchanged, so a drive loop
  // that only watched the clock polled forever. The deadline allows 100
  // slices of 100 ms; the poll callback throws well past that, so a
  // regression fails fast instead of hanging the suite.
  sim::Simulator simulator{1};
  sim::Timer tick;
  auto rearm = [&] { tick.schedule_after(sim::Time::milliseconds(1)); };
  tick.bind(simulator, rearm);
  tick.schedule_after(sim::Time::milliseconds(1));
  sim::BudgetEnforcer budget{sim::RunBudget{.max_events = 50}};
  simulator.set_budget(&budget);

  int polls = 0;
  const auto watched = [&]() -> const transport::SenderBase* {
    if (++polls > 200) {
      throw std::runtime_error{"drive kept polling after the budget tripped"};
    }
    return nullptr;
  };
  bool complete = true;
  EXPECT_NO_THROW(complete = drive_until_complete_or_deadline(
                      simulator, watched, sim::Time::seconds(10)));
  EXPECT_FALSE(complete);
  EXPECT_TRUE(budget.tripped());
  EXPECT_TRUE(simulator.stopped());
  EXPECT_EQ(simulator.events_executed(), 50u);
  EXPECT_LE(polls, 2);
}

TEST(WebRunnerTest, PagesCompleteUnderLightLoad) {
  workload::WebsiteCatalog catalog{10, sim::Random{3}};
  WebRunner runner{1};
  std::vector<workload::WebRequest> requests;
  for (int i = 0; i < 5; ++i) {
    requests.push_back({sim::Time::seconds(3.0 * i), static_cast<std::size_t>(i)});
  }
  auto results = runner.run(schemes::Scheme::halfback, catalog, requests).pages;
  ASSERT_EQ(results.size(), 5u);
  for (const PageResult& r : results) {
    EXPECT_TRUE(r.finished);
    EXPECT_GT(r.response_time(), 100_ms);
    EXPECT_LT(r.response_time(), 10_s);
  }
}

TEST(WebRunnerTest, HalfbackPagesFasterThanTcp) {
  workload::WebsiteCatalog catalog{8, sim::Random{4}};
  std::vector<workload::WebRequest> requests;
  for (int i = 0; i < 4; ++i) {
    requests.push_back({sim::Time::seconds(4.0 * i), static_cast<std::size_t>(i)});
  }
  auto halfback = WebRunner{1}.run(schemes::Scheme::halfback, catalog, requests).pages;
  auto tcp = WebRunner{1}.run(schemes::Scheme::tcp, catalog, requests).pages;
  stats::Summary h, t;
  for (const auto& r : halfback) h.add(r.response_time().to_ms());
  for (const auto& r : tcp) t.add(r.response_time().to_ms());
  EXPECT_LT(h.mean(), t.mean());
}

TEST(TraceTest, BackgroundFlowDipsAndRecovers) {
  auto traces = run_trace(1, TraceScenario::halfback).flows;
  ASSERT_EQ(traces.size(), 2u);
  const FlowTrace& bg = traces[0];
  // Background reaches near-full rate before the short flow starts...
  double before = 0.0;
  for (const auto& s : bg.throughput) {
    if (s.bucket_start > 600_ms && s.bucket_start < 1_s) {
      before = std::max(before, s.mbps);
    }
  }
  EXPECT_GT(before, 10.0);
  // ...dips while the short flow runs...
  double during = 1e9;
  for (const auto& s : bg.throughput) {
    if (s.bucket_start >= 1_s && s.bucket_start < 1.4_s) {
      during = std::min(during, s.mbps);
    }
  }
  EXPECT_LT(during, before);
  // ...and the short flow completes.
  EXPECT_GT(traces[1].completion, 1_s);
}

TEST(TraceTest, HalfbackShortFlowBucketsPinned) {
  // Each sample is the bucket that just ended: bytes delivered during
  // [i x 60 ms, (i + 1) x 60 ms), up to the last bucket with deliveries.
  const auto traces = run_trace(1, TraceScenario::halfback).flows;
  ASSERT_EQ(traces.size(), 2u);
  const std::vector<FlowTrace::Sample>& samples = traces[1].throughput;
  EXPECT_EQ(samples.size(), 22u);  // 0 to 1260 ms
  constexpr double kBytesPerMbps = 7'500.0;  // 1e6 bit/s x 60 ms / 8
  double total_bytes = 0.0;
  std::size_t first_nonzero = samples.size();
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(samples[i].bucket_start,
              sim::Time::milliseconds(60.0 * static_cast<double>(i)));
    const double bytes = samples[i].mbps * kBytesPerMbps;
    if (bytes > 0.5 && first_nonzero == samples.size()) first_nonzero = i;
    total_bytes += bytes;
  }
  ASSERT_LT(first_nonzero, samples.size());
  EXPECT_EQ(samples[first_nonzero].bucket_start, 1080_ms);
  EXPECT_NEAR(total_bytes, 70.0 * 1448.0, 1e-6);  // 101,360 bytes
}

TEST(TraceTest, AllScenariosProduceShortFlows) {
  for (TraceScenario scenario :
       {TraceScenario::optimal, TraceScenario::halfback, TraceScenario::single_tcp,
        TraceScenario::two_tcp_halves}) {
    auto traces = run_trace(1, scenario).flows;
    const std::size_t expected = scenario == TraceScenario::two_tcp_halves ? 3u : 2u;
    EXPECT_EQ(traces.size(), expected) << to_string(scenario);
    for (std::size_t i = 1; i < traces.size(); ++i) {
      EXPECT_GT(traces[i].completion, sim::Time::zero()) << to_string(scenario);
    }
  }
}

TEST(RunRigTest, EveryDriverIsAuditedAndReproducesItsHash) {
  // Every driver builds its runs on exp::Rig, so each reports the same
  // audited record: a nonzero trace hash, no invariant violations, and the
  // same hash again on a same-seed rerun.
  const auto expect_audited = [](const char* driver, const RunRecord& first,
                                 const RunRecord& again) {
    SCOPED_TRACE(driver);
    EXPECT_NE(first.trace_hash, 0u);
    EXPECT_EQ(first.audit_violations, 0u);
    EXPECT_GT(first.events_executed, 0u);
    EXPECT_EQ(again.trace_hash, first.trace_hash);
  };

  {
    EmulabRunner::Config config;
    config.dumbbell.sender_count = 2;
    config.dumbbell.receiver_count = 2;
    config.drain = sim::Time::seconds(10);
    WorkloadPart part;
    part.scheme = schemes::Scheme::halfback;
    for (int i = 0; i < 3; ++i) {
      part.schedule.push_back({sim::Time::milliseconds(100.0 * i), 100'000});
    }
    expect_audited("EmulabRunner", EmulabRunner{config}.run({part}),
                   EmulabRunner{config}.run({part}));
  }
  {
    PlanetLabConfig config;
    config.pair_count = 2;
    const PlanetLabEnv env{config};
    expect_audited("PlanetLab trial",
                   env.run_one(schemes::Scheme::halfback, env.paths()[0], 11),
                   env.run_one(schemes::Scheme::halfback, env.paths()[0], 11));
  }
  {
    HomeNetConfig config;
    config.server_count = 1;
    const HomeNetProfile& wifi = home_profiles()[2];
    expect_audited("HomeNet", HomeNetEnv{config}.run(schemes::Scheme::tcp, wifi)[0],
                   HomeNetEnv{config}.run(schemes::Scheme::tcp, wifi)[0]);
  }
  expect_audited("run_trace", run_trace(1, TraceScenario::halfback),
                 run_trace(1, TraceScenario::halfback));
  {
    workload::WebsiteCatalog catalog{3, sim::Random{5}};
    const std::vector<workload::WebRequest> requests{{sim::Time::zero(), 0},
                                                     {sim::Time::seconds(1), 1}};
    expect_audited("WebRunner",
                   WebRunner{1}.run(schemes::Scheme::halfback, catalog, requests),
                   WebRunner{1}.run(schemes::Scheme::halfback, catalog, requests));
  }
}

}  // namespace
}  // namespace halfback::exp
