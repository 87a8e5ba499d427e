// Run manifest: the provenance record an experiment emits next to its
// telemetry files — enough to reproduce the run (seed, config digest) and
// to check it reproduced (trace hash, metric snapshot).
//
// Wall-clock time is banned inside src/ (lint rule "nondeterminism"), so
// `wall_time_seconds` defaults to zero here and is stamped by the bench /
// CLI layer that owns the stopwatch.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.h"

namespace halfback::telemetry {

class MetricRegistry;

struct RunManifest {
  /// One in-sim cost-profiler row (see sim::DispatchProfiler): cycle
  /// attribution for one event type. `count` is deterministic; `cycles`
  /// is wall-clock-adjacent and varies run to run, like wall_time_seconds.
  struct ProfileRow {
    std::string event_type;     ///< demangled event class name
    std::uint64_t count = 0;    ///< dispatches of this type (exact)
    std::uint64_t cycles = 0;   ///< sampled cycle ticks inside fire()
                                ///< (1 in DispatchProfiler::kSamplePeriod)
  };

  std::string experiment;        ///< e.g. "emulab", "planetlab", "chaos:rc-2"
  std::string scheme;            ///< scheme under test, if one
  std::uint64_t seed = 0;
  std::uint64_t config_digest = 0;  ///< fnv1a64 over the config's text form
  std::uint64_t trace_hash = 0;     ///< audit trace hash, 0 if not audited
  sim::Time sim_end;                ///< simulated clock at snapshot
  std::uint64_t events_dispatched = 0;
  double wall_time_seconds = 0.0;   ///< stamped outside src/ (see above)
  /// Dispatch-profiler table; empty when no profiler was installed (the
  /// manifest then omits its "profile" key entirely).
  std::vector<ProfileRow> profile;
};

/// FNV-1a 64-bit over `text`; the manifest's config digest.
std::uint64_t fnv1a64(std::string_view text);

/// "0x" + 16 lowercase hex digits, the repo's canonical hash spelling.
std::string hex64(std::uint64_t value);

/// One JSON object: the manifest fields plus, when `registry` is non-null,
/// a "metrics" array holding the full JSONL snapshot.
void write_manifest_json(std::ostream& out, const RunManifest& manifest,
                         const MetricRegistry* registry);

}  // namespace halfback::telemetry
