// The supervised executor (exp/supervisor.h): one run per cell,
// quarantine records, and a manifest whose bytes never depend on worker
// count.
#include "exp/supervisor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "telemetry/quarantine.h"

namespace halfback::exp {
namespace {

TEST(SupervisorTest, HealthyCellsRunOnceAndTheManifestIsClean) {
  std::vector<int> runs(8, 0);
  const SupervisedReport report = supervised_for(
      8,
      [&](std::size_t i) {
        ++runs[i];
        return AttemptOutcome{};
      },
      0, nullptr);

  EXPECT_TRUE(report.complete());
  EXPECT_EQ(report.manifest.attempted, 8u);
  EXPECT_EQ(report.manifest.completed, 8u);
  EXPECT_EQ(report.manifest.quarantined, 0u);
  EXPECT_TRUE(report.manifest.records.empty());
  for (int count : runs) EXPECT_EQ(count, 1);
}

TEST(SupervisorTest, AFailingCellExhaustsItsAttemptsAndIsQuarantined) {
  std::atomic<int> calls{0};
  const SupervisedReport report = supervised_for(
      5,
      [&](std::size_t i) {
        ++calls;
        AttemptOutcome outcome;
        if (i == 3) {
          outcome.completed = false;
          outcome.reason = "event_count";
          outcome.detail = "synthetic storm";
          outcome.events_at_trip = 12345;
        }
        return outcome;
      },
      0, [](std::size_t i) { return "cell-" + std::to_string(i); });

  EXPECT_EQ(calls.load(), 5);  // the failing cell is not run again
  EXPECT_FALSE(report.complete());
  EXPECT_EQ(report.manifest.attempted, 5u);
  EXPECT_EQ(report.manifest.completed, 4u);
  EXPECT_EQ(report.manifest.quarantined, 1u);
  ASSERT_EQ(report.manifest.records.size(), 1u);
  const telemetry::QuarantineRecord& record = report.manifest.records.front();
  EXPECT_EQ(record.cell_index, 3u);
  EXPECT_EQ(record.cell, "cell-3");
  EXPECT_EQ(record.reason, "event_count");
  EXPECT_EQ(record.detail, "synthetic storm");
  EXPECT_EQ(record.events_at_trip, 12345u);
}

TEST(SupervisorTest, ExceptionsAreQuarantinedNotPropagated) {
  const SupervisedReport report = supervised_for(
      3,
      [&](std::size_t i) -> AttemptOutcome {
        if (i == 1) throw std::runtime_error{"worker blew up"};
        return AttemptOutcome{};
      },
      0, nullptr);

  EXPECT_EQ(report.manifest.quarantined, 1u);
  ASSERT_EQ(report.manifest.records.size(), 1u);
  EXPECT_EQ(report.manifest.records.front().reason, "exception");
  EXPECT_EQ(report.manifest.records.front().detail, "worker blew up");
}

TEST(SupervisorTest, ManifestBytesAreIndependentOfWorkerCount) {
  // Deterministic failure pattern; only the thread count differs between
  // the two sweeps. The manifest must be byte-identical — the compaction
  // happens in index order on the calling thread.
  const auto run = [](unsigned threads) {
    return supervised_for(
        12,
        [](std::size_t i) {
          AttemptOutcome outcome;
          if (i % 3 == 0) {
            outcome.completed = false;
            outcome.reason = "storm";
            outcome.detail = "cell " + std::to_string(i);
            outcome.events_at_trip = 1000 + i;
          }
          return outcome;
        },
        threads, [](std::size_t i) { return "c" + std::to_string(i); });
  };

  const SupervisedReport serial = run(1);
  const SupervisedReport wide = run(4);
  EXPECT_EQ(telemetry::quarantine_json(serial.manifest),
            telemetry::quarantine_json(wide.manifest));
  EXPECT_EQ(serial.manifest.quarantined, 4u);  // cells 0, 3, 6, 9
}

}  // namespace
}  // namespace halfback::exp
