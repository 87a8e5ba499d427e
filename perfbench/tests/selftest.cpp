// Tests of the benchmark's own helpers: the percentile rule, the metric-name
// rule, the result line, span self time, the speed scale, and the replay
// hash check.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign.h"
#include "gauge.h"
#include "replay.h"
#include "report.h"
#include "spans.h"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Percentile, P90NeedsTenSamplesBeyond) {
  EXPECT_EQ(samples_beyond(100, 0.9), 10u);
  EXPECT_EQ(samples_beyond(99, 0.9), 9u);
  const Percentile p = percentile(one_to(100), 0.9);
  EXPECT_EQ(p.value, 90.0);
  EXPECT_EQ(p.count, 100u);
  EXPECT_EQ(p.beyond, 10u);
  EXPECT_THROW(percentile(one_to(99), 0.9), std::invalid_argument);
  EXPECT_THROW(percentile({}, 0.5), std::invalid_argument);
}

TEST(Percentile, P50IsNearestRankAndMedianAveragesTheMiddlePair) {
  EXPECT_EQ(percentile(one_to(100), 0.5).value, 50.0);
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median(one_to(100)), 50.5);
  EXPECT_THROW(median({}), std::invalid_argument);
}

TEST(MetricName, AcceptsOnlyTheNameAlphabet) {
  EXPECT_TRUE(valid_metric_name("run_ms.p50"));
  EXPECT_TRUE(valid_metric_name("schemes.ns_per_packet.tcp-cache"));
  EXPECT_TRUE(valid_metric_name("9lives"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name("flows per s"));
  EXPECT_FALSE(valid_metric_name("a/b"));
  EXPECT_FALSE(valid_metric_name(".hidden"));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  EXPECT_TRUE(valid_unit("1/s"));
  EXPECT_TRUE(valid_unit("%"));
  EXPECT_FALSE(valid_unit("m s"));
}

TEST(ResultJson, PrintsTheResultLine) {
  const std::string line =
      result_json(true, 12, 0, {{"latency_ms", 1.25, "ms"}, {"setup_s", 0.5, "s"}});
  EXPECT_EQ(line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": "
            "{\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, "
            "\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}");
}

TEST(ResultJson, KeepsEveryDigit) {
  const std::string line = result_json(false, 1, 1, {{"x", 0.1 + 0.2, "s"}});
  EXPECT_NE(line.find("0.30000000000000004"), std::string::npos);
  EXPECT_NE(line.find("\"correct\": false"), std::string::npos);
}

TEST(ResultJson, RejectsBadMetrics) {
  EXPECT_THROW(result_json(true, 1, 0, {{"a", 1, "s"}, {"a", 2, "s"}}), std::invalid_argument);
  EXPECT_THROW(result_json(true, 1, 0, {{"bad name", 1, "s"}}), std::invalid_argument);
  EXPECT_THROW(result_json(true, 1, 0, {{"a", std::nan(""), "s"}}), std::invalid_argument);
  EXPECT_THROW(result_json(true, 1, 0, {{"a", 1, "no unit"}}), std::invalid_argument);
}

TEST(Spans, SelfTimeIsSpanMinusChildren) {
  SpanRecorder rec;
  const std::uint32_t root = rec.name_id("exp.run");
  const std::uint32_t child = rec.name_id("sim.run");
  rec.begin_run(7);
  rec.open(root, 1, 0);
  rec.open(child, 1, 10);
  rec.close(30);
  rec.open(child, 1, 40);
  rec.close(50);
  rec.close(100);
  EXPECT_EQ(rec.totals(root).inclusive_ns, 100.0);
  EXPECT_EQ(rec.totals(root).self_ns, 70.0);
  EXPECT_EQ(rec.totals(child).self_ns, 30.0);
  EXPECT_EQ(rec.layer_self_ns("exp"), 70.0);
  ASSERT_EQ(rec.spans().size(), 3u);
  EXPECT_EQ(rec.spans()[1].parent, 0u);
  EXPECT_EQ(rec.spans()[1].run, 7u);
  EXPECT_EQ(rec.spans()[0].parent, SpanRecorder::kNone);
}

TEST(Spans, WeightedChildrenAreSubtractedAtTheirWeight) {
  SpanRecorder rec;
  const std::uint32_t root = rec.name_id("sim.run");
  const std::uint32_t hook = rec.name_id("audit.hook");
  rec.open(root, 1, 0);
  rec.open(hook, 4, 10);  // a sampled call standing for 4
  rec.close(15);
  rec.close(100);
  EXPECT_EQ(rec.totals(hook).inclusive_ns, 20.0);
  EXPECT_EQ(rec.totals(root).self_ns, 80.0);
}

TEST(Spans, SampledBoundariesTimeOneInPeriodAndNestedCallsWithThem) {
  SpanRecorder rec(/*capacity=*/1024, /*sample_period=*/4);
  const std::uint32_t outer = rec.name_id("transport.handler");
  const std::uint32_t inner = rec.name_id("audit.hook");
  int work = 0;
  for (int i = 0; i < 8; ++i) {
    rec.sampled(outer, [&] { rec.sampled(inner, [&] { ++work; }); });
  }
  EXPECT_EQ(work, 8);
  EXPECT_EQ(rec.totals(outer).calls, 8u);
  EXPECT_EQ(rec.totals(inner).calls, 8u);
  EXPECT_EQ(rec.totals(outer).spans, 2u);  // calls 0 and 4
  EXPECT_EQ(rec.totals(inner).spans, 2u);  // only inside the timed outer calls
  for (const SpanRecorder::Span& s : rec.spans()) EXPECT_EQ(s.weight, 4u);
}

TEST(SpeedScale, SamplesEverySpacingAndScalesByTheNeighbourMedian) {
  SpeedScale speed;
  EXPECT_EQ(speed.before_span(), 0u);  // the first span always samples
  speed.after_span(SpeedScale::kSpacingMs / 2);
  EXPECT_EQ(speed.before_span(), 0u);  // not enough work since
  speed.after_span(SpeedScale::kSpacingMs / 2);
  EXPECT_EQ(speed.before_span(), 1u);
  speed.after_span(1.0);
  speed.finish();
  const std::vector<double>& g = speed.samples();
  ASSERT_EQ(g.size(), 2 + SpeedScale::kNeighbours);
  for (double ms : g) EXPECT_GT(ms, 0.0);
  // Mark 0: samples 0..kNeighbours (the mark and the kNeighbours after it).
  const double m0 = median({g.begin(), g.begin() + SpeedScale::kNeighbours + 1});
  EXPECT_DOUBLE_EQ(speed.factor(0), std::pow(kReferenceGaugeMs / m0, kSensitivity));
  EXPECT_THROW(speed.factor(g.size()), std::out_of_range);
}

class ReplayCheck : public ::testing::Test {
 protected:
  /// Run `index` of `workload` at seed 3 through its runner, replay it, then
  /// replay the same run of the campaign generated from another seed.
  static void expect_replay(const std::string& workload, std::size_t index) {
    const Campaign c = make_campaign(workload, 3);
    const RunOutcome runner = execute(c, index);
    ASSERT_FALSE(runner.failed()) << runner.error;
    SpanRecorder rec;
    const ReplayNames names{rec};
    const ReplayStats same = replay(c, c.runs[index], 0, rec, names);
    EXPECT_TRUE(replay_matches(runner.trace_hash, same)) << c.runs[index].label;

    // Red case: under another seed the replay is not the same program.
    const Campaign other = make_campaign(workload, 4);
    const ReplayStats diverged = replay(other, other.runs[index], 1, rec, names);
    EXPECT_FALSE(diverged.threw) << diverged.error;
    EXPECT_FALSE(replay_matches(runner.trace_hash, diverged)) << c.runs[index].label;
  }
};

TEST_F(ReplayCheck, DumbbellRun) { expect_replay("dumbbell_short", 7); }

TEST_F(ReplayCheck, BulkRun) { expect_replay("bulk_bloat", 3); }

TEST_F(ReplayCheck, FaultyRunThroughTheForwardingFaultHook) {
  const Campaign c = make_campaign("faulty_dumbbell", 3);
  for (std::size_t i = 0; i < c.runs.size(); ++i) {
    if (c.runs[i].label.rfind("adversarial/", 0) == 0) return expect_replay(c.workload, i);
  }
  FAIL() << "no adversarial run in the campaign";
}

TEST_F(ReplayCheck, LossyCrossTrafficTrial) {
  // The path ensemble is fixed; the seed reaches a trial through its
  // random-loss stream, so the red case needs a lossy path.
  const Campaign c = make_campaign("wan_trials", 3);
  for (std::size_t i = 0; i < c.runs.size(); ++i) {
    const halfback::exp::PathSample& path = c.env->paths()[c.runs[i].path];
    if (path.cross_traffic && path.random_loss > 0) return expect_replay(c.workload, i);
  }
  FAIL() << "no lossy cross-traffic trial in the campaign";
}

}  // namespace
}  // namespace perfbench
