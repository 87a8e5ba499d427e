// Extension bench (robustness): the chaos matrix. The paper argues
// Halfback runs short flows "quickly and safely"; safety there is
// established under i.i.d. loss. This bench drives every scheme through
// the netfault scenario catalog — bursty loss, reordering, duplication,
// corruption, blackouts, link flapping, delay spikes, and an
// everything-at-once composite — on the Emulab dumbbell, and reports FCT
// plus recovery/rejection counters per cell. Acceptance bar: every flow
// completes in every cell, every cell passes the invariant audit, and
// (under --full) every cell re-runs to a bit-identical trace hash.
#include <chrono>
#include <cstdio>
#include <fstream>

#include "common.h"
#include "exp/chaos.h"
#include "sim/dispatch_profiler.h"
#include "stats/ascii_plot.h"
#include "stats/table.h"
#include "telemetry/export.h"
#include "telemetry/hub.h"
#include "telemetry/quarantine.h"

using namespace halfback;

int main(int argc, char** argv) {
  bench::Options opt = bench::parse_options(argc, argv);
  bench::print_header("Extension: chaos matrix",
                      "fault-injection catalog x schemes on the Emulab dumbbell",
                      opt);

  exp::ChaosSweepConfig config;
  config.runner.seed = opt.seed;
  config.threads = opt.threads;
  // Quick mode keeps the matrix small enough for CI smoke; --full runs the
  // paper's whole comparison set and proves per-cell determinism by
  // re-running every cell.
  const std::vector<schemes::Scheme> quick_schemes{
      schemes::Scheme::tcp, schemes::Scheme::tcp10, schemes::Scheme::proactive,
      schemes::Scheme::halfback};
  std::span<const schemes::Scheme> scheme_set =
      opt.full ? schemes::evaluation_set()
               : std::span<const schemes::Scheme>{quick_schemes};
  config.verify_determinism = opt.full;
  config.telemetry_dir = opt.telemetry_dir;
  config.record_percentiles = opt.percentiles;
  // Supervision knobs: flags override the stock per-cell budget
  // (docs/robustness.md). The storm-guard CI job uses these to force a
  // pathological cell into quarantine.
  if (opt.budget_events != 0) config.cell_budget.max_events = opt.budget_events;
  if (opt.storm_window != 0) config.cell_budget.storm_window = opt.storm_window;
  if (opt.storm_rate != 0.0) {
    config.cell_budget.storm_events_per_sim_second = opt.storm_rate;
  }

  const exp::ChaosSweepResult sweep = exp::chaos_sweep(config, scheme_set);
  const std::vector<exp::ChaosCell>& cells = sweep.cells;
  const telemetry::QuarantineManifest& quarantine = sweep.supervision.manifest;

  std::vector<std::string> headers{
      "scenario",  "scheme",      "unfinished", "mean FCT (ms)",
      "median FCT (ms)"};
  if (opt.percentiles) {
    headers.insert(headers.end(), {"p50 (ms)", "p99 (ms)", "p99.9 (ms)"});
  }
  headers.insert(headers.end(),
                 {"timeouts", "retx", "proactive retx", "fault drops",
                  "corrupt rej", "dup rej", "audit", "status"});
  stats::Table table{std::move(headers)};
  std::size_t unfinished_total = 0;
  std::uint64_t violations_total = 0;
  bool all_deterministic = true;
  for (const exp::ChaosCell& cell : cells) {
    // Quarantined cells carry the partial state of their run at the trip;
    // they are accounted for by the quarantine manifest, not by the
    // completed-cell acceptance bars.
    if (!cell.quarantined) {
      unfinished_total += cell.unfinished;
      violations_total += cell.audit_violations;
      all_deterministic = all_deterministic && cell.deterministic;
    }
    const std::string status =
        cell.quarantined
            ? std::string{"QUARANTINED:"} + std::string{to_string(cell.trip)}
            : std::string{"ok"};
    std::vector<std::string> row{cell.scenario, bench::display(cell.scheme),
                                 std::to_string(cell.unfinished),
                                 stats::Table::num(cell.mean_fct_ms, 1),
                                 stats::Table::num(cell.median_fct_ms, 1)};
    if (opt.percentiles) {
      row.insert(row.end(), {stats::Table::num(cell.p50_fct_ms, 1),
                             stats::Table::num(cell.p99_fct_ms, 1),
                             stats::Table::num(cell.p999_fct_ms, 1)});
    }
    row.insert(row.end(),
               {stats::Table::num(cell.mean_timeouts, 2),
                stats::Table::num(cell.mean_normal_retx, 2),
                stats::Table::num(cell.mean_proactive_retx, 2),
                std::to_string(cell.fault_drops),
                std::to_string(cell.corrupted_rejected),
                std::to_string(cell.duplicate_rejected),
                cell.audit_violations == 0 ? "ok" : "VIOLATION", status});
    table.add_row(std::move(row));
  }
  table.print();
  bench::maybe_write_csv(opt, "ext_chaos_matrix", table);

  if (!opt.telemetry_dir.empty()) {
    // Showcase cell: re-run the adversarial Halfback cell with a bench-owned
    // hub. Wall clocks are banned inside src/ (lint rule "nondeterminism"),
    // so this is where the manifest's wall time gets stamped — and where the
    // registry's RTT histogram prints inline via stats::ascii_histogram.
    exp::EmulabRunner::Config runner_config = config.runner;
    for (const exp::ChaosScenario& s : exp::chaos_catalog()) {
      if (s.name == "adversarial") runner_config.faults = s.faults;
    }
    telemetry::Hub hub;
    runner_config.telemetry = &hub;
    // Full observability for the showcase: the in-sim cost profiler rides
    // the profiled dispatch loop and lands in the manifest's "profile"
    // table (dispatch counts deterministic, cycle columns not).
    sim::DispatchProfiler profiler;
    runner_config.profiler = &profiler;
    exp::EmulabRunner runner{runner_config};
    exp::WorkloadPart part;
    part.scheme = schemes::Scheme::halfback;
    part.schedule = exp::chaos_cell_schedule();
    const auto wall_start = std::chrono::steady_clock::now();
    const exp::RunResult run = runner.run({part});
    telemetry::RunManifest manifest =
        runner.manifest(run, "chaos:adversarial:showcase");
    manifest.scheme = schemes::name(schemes::Scheme::halfback);
    manifest.wall_time_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();
    exp::write_run_artifacts(opt.telemetry_dir + "/showcase-halfback", hub,
                             manifest, run.sim_end);
    stats::HistogramOptions histogram_options;
    histogram_options.width = 48;
    histogram_options.max_rows = 16;
    histogram_options.unit = "ms";
    histogram_options.title = "\nRTT samples, adversarial cell (halfback):";
    std::printf("%s", stats::ascii_histogram(
                          telemetry::histogram_bins(*hub.transport().rtt, 1e6),
                          histogram_options)
                          .c_str());
    std::printf("telemetry written to %s (matrix cells + showcase)\n",
                opt.telemetry_dir.c_str());
  }

  // Completeness accounting: every cell is attempted; quarantined cells are
  // excluded from the acceptance bars above but never silently dropped.
  std::printf(
      "\nsupervision: %llu attempted / %llu completed / %llu quarantined\n",
      static_cast<unsigned long long>(quarantine.attempted),
      static_cast<unsigned long long>(quarantine.completed),
      static_cast<unsigned long long>(quarantine.quarantined));
  if (!quarantine.clean()) {
    std::printf("quarantine manifest:\n%s",
                telemetry::quarantine_json(quarantine).c_str());
  }
  if (!opt.quarantine_path.empty()) {
    std::ofstream out{opt.quarantine_path};
    telemetry::write_quarantine_json(out, quarantine);
    std::printf("wrote %s\n", opt.quarantine_path.c_str());
  }

  std::printf("\n%zu cells, %zu unfinished flows, %llu audit violations%s\n",
              cells.size(), unfinished_total,
              static_cast<unsigned long long>(violations_total),
              config.verify_determinism
                  ? (all_deterministic ? ", all cells deterministic"
                                       : ", DETERMINISM FAILURE")
                  : "");
  const bool quarantine_ok = quarantine.clean() || opt.allow_quarantine;
  const bool ok = unfinished_total == 0 && violations_total == 0 &&
                  all_deterministic && quarantine_ok;
  if (!ok) {
    std::printf("CHAOS MATRIX FAILED%s\n",
                !quarantine_ok ? " (quarantined cells; pass "
                                 "--allow-quarantine to accept partial results)"
                               : "");
  }
  return ok ? 0 : 1;
}
