// Quarantine manifest: the deterministic record of which cells of a
// supervised sweep failed their budgets and what the surviving aggregate
// actually covers.
//
// A supervised sweep (exp::supervised_for) degrades gracefully: cells that
// fail are quarantined, the rest aggregate as usual, and this manifest is
// the accounting that makes the partial result honest — N attempted / N
// completed / N quarantined, plus one record per quarantined cell naming
// the tripped budget. The manifest is a pure
// function of (seed, budgets, cell set): same inputs give byte-identical
// JSON regardless of worker count, so it can be diffed and golden-tested
// like every other artifact in this repo.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/annotations.h"
#include "sim/time.h"

namespace halfback::telemetry {

/// One quarantined cell.
struct QuarantineRecord {
  std::uint64_t cell_index = 0;  ///< position in the sweep's cell order
  std::string cell;              ///< human name, e.g. "adversarial/rc3"
  std::string reason;            ///< BudgetTrip name or "exception"
  std::uint64_t events_at_trip = 0;
  sim::Time sim_time_at_trip;
  std::string detail;            ///< BudgetReport::summary() or what()
};

/// Completeness accounting for one supervised sweep.
struct QuarantineManifest {
  std::uint64_t attempted = 0;    ///< cells the sweep tried
  std::uint64_t completed = 0;    ///< cells with usable results
  std::uint64_t quarantined = 0;  ///< cells that failed
  std::vector<QuarantineRecord> records;  ///< quarantined cells, index order

  bool clean() const { return quarantined == 0; }
};

/// One JSON object per manifest; record order is cell-index order, so the
/// bytes are stable across worker counts.
void write_quarantine_json(std::ostream& out,
                           const QuarantineManifest& manifest);
std::string quarantine_json(const QuarantineManifest& manifest)
    HB_EFFECTS(alloc);

}  // namespace halfback::telemetry
