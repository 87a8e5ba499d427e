// Shared helpers for the figure-reproduction benches.
//
// Every bench binary prints the rows/series of one paper figure or table.
// Defaults are scaled down so the whole bench suite runs in minutes on a
// laptop; pass --full for paper-scale parameters. EXPERIMENTS.md records
// paper-vs-measured values for both settings.
#pragma once

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "schemes/scheme.h"
#include "sim/time.h"
#include "stats/table.h"

namespace halfback::bench {

/// Command-line options shared by the bench binaries.
struct Options {
  bool full = false;          ///< paper-scale parameters
  std::uint64_t seed = 1;
  unsigned threads = 0;       ///< 0 = hardware concurrency
  int pairs = -1;             ///< ensemble size override (-1 = default)
  double duration_s = -1.0;   ///< workload duration override
  int replications = 1;       ///< independent seeds per sweep cell
  std::string csv_dir;        ///< write result tables as CSV here
  std::string telemetry_dir;  ///< write telemetry exports/manifests here
  /// Add per-cell FCT tail-percentile columns (p50/p99/p99.9) to sweeps
  /// that support them (ext_chaos_matrix). Deterministic at any --threads.
  bool percentiles = false;

  // Supervision knobs (docs/robustness.md), honored by the sweep benches
  // that run under the supervised executor (ext_chaos_matrix).
  bool allow_quarantine = false;   ///< quarantined cells don't fail the run
  std::uint64_t budget_events = 0; ///< per-cell event budget (0 = default)
  std::uint64_t storm_window = 0;  ///< storm-detector window (0 = default)
  double storm_rate = 0.0;         ///< events/sim-second threshold (0 = default)
  std::string quarantine_path;     ///< write the quarantine manifest here
};

/// Parse a strictly numeric, non-negative value for `flag`; exits with a
/// diagnostic on junk like `--threads=abc`, `--pairs=-3`, or `--reps=` —
/// silently treating those as 0 (the old atoi behaviour) turned typos into
/// hour-long misconfigured campaigns.
inline std::uint64_t parse_count(const char* flag, const char* v) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed = std::strtoull(v, &end, 10);
  if (*v == '\0' || end == nullptr || *end != '\0' || *v == '-' || errno != 0) {
    std::fprintf(stderr, "%s expects a non-negative integer, got \"%s\"\n", flag, v);
    std::exit(2);
  }
  return parsed;
}

inline double parse_seconds(const char* flag, const char* v) {
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(v, &end);
  if (*v == '\0' || end == nullptr || *end != '\0' || errno != 0 || parsed < 0.0) {
    std::fprintf(stderr, "%s expects a non-negative number of seconds, got \"%s\"\n",
                 flag, v);
    std::exit(2);
  }
  return parsed;
}

inline double parse_number(const char* flag, const char* v) {
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(v, &end);
  if (*v == '\0' || end == nullptr || *end != '\0' || errno != 0 || parsed < 0.0) {
    std::fprintf(stderr, "%s expects a non-negative number, got \"%s\"\n", flag,
                 v);
    std::exit(2);
  }
  return parsed;
}

inline Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      const std::size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--full") {
      opt.full = true;
    } else if ((v = value("--seed="))) {
      opt.seed = parse_count("--seed", v);
    } else if ((v = value("--threads="))) {
      opt.threads = static_cast<unsigned>(parse_count("--threads", v));
    } else if ((v = value("--pairs="))) {
      opt.pairs = static_cast<int>(parse_count("--pairs", v));
    } else if ((v = value("--duration="))) {
      opt.duration_s = parse_seconds("--duration", v);
    } else if ((v = value("--reps="))) {
      opt.replications = static_cast<int>(parse_count("--reps", v));
    } else if ((v = value("--csv="))) {
      opt.csv_dir = v;
    } else if ((v = value("--telemetry="))) {
      opt.telemetry_dir = v;
    } else if (arg == "--percentiles") {
      opt.percentiles = true;
    } else if (arg == "--allow-quarantine") {
      opt.allow_quarantine = true;
    } else if ((v = value("--budget-events="))) {
      opt.budget_events = parse_count("--budget-events", v);
    } else if ((v = value("--storm-window="))) {
      opt.storm_window = parse_count("--storm-window", v);
    } else if ((v = value("--storm-rate="))) {
      opt.storm_rate = parse_number("--storm-rate", v);
    } else if ((v = value("--quarantine="))) {
      opt.quarantine_path = v;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: %s [--full] [--seed=N] [--threads=N] [--pairs=N] "
          "[--duration=SECONDS] [--reps=N] [--csv=DIR] [--telemetry=DIR]\n"
          "       [--percentiles]\n"
          "       [--allow-quarantine] [--budget-events=N] [--storm-window=N]\n"
          "       [--storm-rate=EVENTS_PER_SIM_SECOND] [--quarantine=FILE]\n",
          argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      std::exit(2);
    }
  }
  return opt;
}

inline void print_header(const char* figure, const char* description,
                         const Options& opt) {
  std::printf("==================================================================\n");
  std::printf("%s — %s\n", figure, description);
  std::printf("mode: %s, seed: %llu\n", opt.full ? "FULL (paper scale)" : "quick",
              static_cast<unsigned long long>(opt.seed));
  std::printf("==================================================================\n\n");
}

inline const char* display(schemes::Scheme s) {
  return schemes::info(s).display_name;
}

/// Exit 1 when any of `results` (an exp::RunRecord-derived result, or a
/// sweep cell carrying its runs' count) reports an invariant violation
/// from its auditor: a figure drawn from an unsound run must not pass for
/// a result. Prints to stderr, so stdout is the same as an unaudited
/// run's whenever the audit is clean.
template <class Results>
void exit_on_audit_violations(const Results& results, const std::string& label) {
  std::uint64_t violations = 0;
  std::size_t failing = 0;
  for (const auto& r : results) {
    violations += r.audit_violations;
    if (r.audit_violations > 0) ++failing;
  }
  if (violations == 0) return;
  std::fprintf(stderr, "%s: %llu invariant violation(s) in %zu of %zu results\n",
               label.c_str(), static_cast<unsigned long long>(violations),
               failing, results.size());
  std::exit(1);
}

/// Write `table` as <csv_dir>/<name>.csv when --csv was given.
inline void maybe_write_csv(const Options& opt, const char* name,
                            const stats::Table& table) {
  if (opt.csv_dir.empty()) return;
  const std::string path = opt.csv_dir + "/" + name + ".csv";
  if (table.write_csv(path)) std::printf("wrote %s\n", path.c_str());
}

}  // namespace halfback::bench
