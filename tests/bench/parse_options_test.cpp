// bench::parse_options argument validation: numeric flags must reject junk
// instead of silently reading 0 (the old atoi/strtoul behaviour), which
// turned typos into misconfigured hour-long campaigns.
#include "common.h"

#include <gtest/gtest.h>

#include <vector>

namespace halfback::bench {
namespace {

Options parse(std::vector<const char*> args) {
  args.insert(args.begin(), "bench_test");
  return parse_options(static_cast<int>(args.size()),
                       const_cast<char**>(args.data()));
}

TEST(ParseOptions, ParsesValidNumericFlags) {
  const Options opt = parse({"--seed=42", "--threads=8", "--pairs=20",
                             "--duration=2.5", "--reps=3"});
  EXPECT_EQ(opt.seed, 42u);
  EXPECT_EQ(opt.threads, 8u);
  EXPECT_EQ(opt.pairs, 20);
  EXPECT_DOUBLE_EQ(opt.duration_s, 2.5);
  EXPECT_EQ(opt.replications, 3);
}

TEST(ParseOptions, DefaultsSurviveWhenFlagsAbsent) {
  const Options opt = parse({"--full"});
  EXPECT_TRUE(opt.full);
  EXPECT_EQ(opt.threads, 0u);
  EXPECT_EQ(opt.pairs, -1);
  EXPECT_DOUBLE_EQ(opt.duration_s, -1.0);
  EXPECT_EQ(opt.replications, 1);
}

TEST(ParseOptions, ParsesPercentilesAndTelemetryFlags) {
  const Options opt = parse({"--percentiles", "--telemetry=/tmp/telem"});
  EXPECT_TRUE(opt.percentiles);
  EXPECT_EQ(opt.telemetry_dir, "/tmp/telem");
}

TEST(ParseOptions, PercentilesDefaultOff) {
  const Options opt = parse({});
  EXPECT_FALSE(opt.percentiles);
  EXPECT_TRUE(opt.telemetry_dir.empty());
}

TEST(ParseOptions, ParsesSupervisionFlags) {
  const Options opt =
      parse({"--allow-quarantine", "--budget-events=5000", "--storm-window=250",
             "--storm-rate=1e6", "--quarantine=/tmp/q.json"});
  EXPECT_TRUE(opt.allow_quarantine);
  EXPECT_EQ(opt.budget_events, 5000u);
  EXPECT_EQ(opt.storm_window, 250u);
  EXPECT_DOUBLE_EQ(opt.storm_rate, 1e6);
  EXPECT_EQ(opt.quarantine_path, "/tmp/q.json");
}

TEST(ParseOptions, SupervisionDefaultsAreOff) {
  const Options opt = parse({});
  EXPECT_FALSE(opt.allow_quarantine);
  EXPECT_EQ(opt.budget_events, 0u);
  EXPECT_EQ(opt.storm_window, 0u);
  EXPECT_DOUBLE_EQ(opt.storm_rate, 0.0);
  EXPECT_TRUE(opt.quarantine_path.empty());
}

using ParseOptionsDeath = ::testing::Test;

TEST(ParseOptionsDeath, RejectsNegativeStormRate) {
  EXPECT_EXIT(parse({"--storm-rate=-5"}), ::testing::ExitedWithCode(2),
              "--storm-rate expects a non-negative number");
}

TEST(ParseOptionsDeath, RejectsNonNumericBudgetEvents) {
  EXPECT_EXIT(parse({"--budget-events=lots"}), ::testing::ExitedWithCode(2),
              "--budget-events expects a non-negative integer");
}

TEST(ParseOptionsDeath, RejectsNonNumericThreads) {
  EXPECT_EXIT(parse({"--threads=abc"}), ::testing::ExitedWithCode(2),
              "--threads expects a non-negative integer");
}

TEST(ParseOptionsDeath, RejectsNegativeThreads) {
  EXPECT_EXIT(parse({"--threads=-2"}), ::testing::ExitedWithCode(2),
              "--threads expects a non-negative integer");
}

TEST(ParseOptionsDeath, RejectsEmptyPairs) {
  EXPECT_EXIT(parse({"--pairs="}), ::testing::ExitedWithCode(2),
              "--pairs expects a non-negative integer");
}

TEST(ParseOptionsDeath, RejectsNegativePairs) {
  EXPECT_EXIT(parse({"--pairs=-3"}), ::testing::ExitedWithCode(2),
              "--pairs expects a non-negative integer");
}

TEST(ParseOptionsDeath, RejectsTrailingJunkInReps) {
  EXPECT_EXIT(parse({"--reps=3x"}), ::testing::ExitedWithCode(2),
              "--reps expects a non-negative integer");
}

TEST(ParseOptionsDeath, RejectsNonNumericDuration) {
  EXPECT_EXIT(parse({"--duration=fast"}), ::testing::ExitedWithCode(2),
              "--duration expects a non-negative number of seconds");
}

TEST(ParseOptionsDeath, RejectsNegativeDuration) {
  EXPECT_EXIT(parse({"--duration=-1.5"}), ::testing::ExitedWithCode(2),
              "--duration expects a non-negative number of seconds");
}

TEST(ParseOptionsDeath, RejectsNonFiniteDuration) {
  // strtod reads these; NaN slips past a `< 0` test.
  for (const char* arg : {"--duration=nan", "--duration=inf"}) {
    EXPECT_EXIT(parse({arg}), ::testing::ExitedWithCode(2),
                "--duration expects a non-negative number of seconds")
        << arg;
  }
}

TEST(ParseOptionsDeath, RejectsNonFiniteStormRate) {
  for (const char* arg :
       {"--storm-rate=nan", "--storm-rate=-inf", "--storm-rate=INFINITY"}) {
    EXPECT_EXIT(parse({arg}), ::testing::ExitedWithCode(2),
                "--storm-rate expects a non-negative number")
        << arg;
  }
}

TEST(ParseOptionsDeath, ParseNumberRejectsNonFiniteValues) {
  // The parser behind custom_scenario's key=value numbers.
  EXPECT_EXIT(parse_number("rtt_ms", "nan"), ::testing::ExitedWithCode(2),
              "rtt_ms expects a non-negative number, got \"nan\"");
  EXPECT_EXIT(parse_number("rtt_ms", "inf"), ::testing::ExitedWithCode(2),
              "rtt_ms expects a non-negative number, got \"inf\"");
}

TEST(ParseOptionsDeath, RejectsUnknownOption) {
  EXPECT_EXIT(parse({"--bogus"}), ::testing::ExitedWithCode(2),
              "unknown option");
}

}  // namespace
}  // namespace halfback::bench
