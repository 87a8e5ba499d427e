#include "exp/supervisor.h"

#include <exception>
#include <utility>
#include <vector>

#include "exp/parallel.h"

namespace halfback::exp {

AttemptOutcome AttemptOutcome::from_budget(const sim::BudgetReport& report) {
  AttemptOutcome out;
  out.completed = false;
  out.reason = sim::to_string(report.tripped);
  out.detail = report.summary();
  out.events_at_trip = report.events_executed;
  out.sim_time_at_trip = report.sim_now;
  return out;
}

SupervisedReport supervised_for(
    std::size_t count,
    const std::function<AttemptOutcome(std::size_t)>& attempt,
    unsigned threads,
    const std::function<std::string(std::size_t)>& cell_name) {
  // One slot per cell, owned by exactly one worker (parallel_for's
  // contract), compacted into the manifest after join.
  std::vector<AttemptOutcome> outcomes(count);
  parallel_for(
      count,
      [&](std::size_t i) {
        AttemptOutcome& outcome = outcomes[i];
        try {
          outcome = attempt(i);
        } catch (const std::exception& e) {
          outcome.completed = false;
          outcome.reason = "exception";
          outcome.detail = e.what();
        } catch (...) {
          outcome.completed = false;
          outcome.reason = "exception";
          outcome.detail = "unknown exception";
        }
      },
      threads);

  // Compact in index order on the calling thread, so the manifest bytes
  // are independent of worker count and scheduling.
  SupervisedReport report;
  telemetry::QuarantineManifest& manifest = report.manifest;
  manifest.attempted = count;
  for (std::size_t i = 0; i < count; ++i) {
    AttemptOutcome& outcome = outcomes[i];
    if (outcome.completed) {
      ++manifest.completed;
      continue;
    }
    ++manifest.quarantined;
    telemetry::QuarantineRecord record;
    record.cell_index = i;
    record.cell = cell_name ? cell_name(i) : std::to_string(i);
    record.reason = std::move(outcome.reason);
    record.events_at_trip = outcome.events_at_trip;
    record.sim_time_at_trip = outcome.sim_time_at_trip;
    record.detail = std::move(outcome.detail);
    manifest.records.push_back(std::move(record));
  }
  return report;
}

}  // namespace halfback::exp
