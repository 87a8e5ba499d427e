// The campaign benchmark: runs one workload for --seconds, checks its
// outputs, and prints every metric by name and unit, the result line last.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans-out <file>]
//
// --trace 0 measures the end-to-end metrics on untraced runs. --trace 1
// alternates untraced passes with passes observed through the runners'
// public seams (a telemetry::Hub and a sim::DispatchProfiler per run), then
// replays the campaign with spans at the seams the runners do not expose,
// and reports the per-layer metrics. See README.md for the definitions.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign.h"
#include "gauge.h"
#include "replay.h"
#include "report.h"
#include "spans.h"

namespace hb = halfback;
using perfbench::Campaign;
using perfbench::Metric;
using perfbench::RunOutcome;
using perfbench::SpeedScale;
using Clock = std::chrono::steady_clock;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;  ///< required
  int trace = 0;
  std::string spans_out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      a.trace = std::stoi(value);
    } else if (flag == "--spans-out") {
      a.spans_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (a.trace != 0 && a.trace != 1) throw std::invalid_argument("--trace takes 0 or 1");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds is required and must be positive");
  return a;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffU;
    h *= 1099511628211ULL;
  }
  return h;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// --- set-up ------------------------------------------------------------------

struct Setup {
  Campaign campaign;
  std::vector<double> secs;        ///< wall time of each set-up
  std::vector<std::size_t> marks;  ///< and its SpeedScale mark
  double gen_ms = 0.0;             ///< median workload-generation time

  /// Median set-up time on the reference machine's scale (call after
  /// SpeedScale::finish).
  double setup_s(const SpeedScale& speed) const {
    std::vector<double> scaled;
    for (std::size_t k = 0; k < secs.size(); ++k) scaled.push_back(secs[k] * speed.factor(marks[k]));
    return perfbench::median(scaled);
  }
};

/// Generate the campaign and run its warm-up runs, kSetups times; keep the
/// last campaign.
Setup set_up(const Args& args, SpeedScale& speed) {
  constexpr int kSetups = 5;
  std::vector<double> gens;
  Setup s;
  for (int k = 0; k < kSetups; ++k) {
    s.marks.push_back(speed.before_span());
    const auto t0 = Clock::now();
    s.campaign = perfbench::make_campaign(args.workload, args.seed);
    for (std::size_t i : s.campaign.warmup) perfbench::execute(s.campaign, i);
    s.secs.push_back(seconds_since(t0));
    speed.after_span(s.secs.back() * 1e3);
    gens.push_back(s.campaign.gen_ms);
  }
  s.gen_ms = perfbench::median(gens);
  return s;
}

// --- output checks -------------------------------------------------------------

/// Per-run checks, counted into attempted/failed: the run did not throw,
/// trip its budget or report audit violations, and reproduced the hash of
/// the first untraced pass.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;

  void fail(const std::string& what, std::uint64_t runs = 1) {
    failed += runs;
    if (problems.size() < 10) problems.push_back(what);
  }

  void run(const perfbench::RunSpec& spec, const RunOutcome& o, std::uint64_t expected_hash,
           const char* phase) {
    ++attempted;
    if (o.threw) {
      fail(std::string{phase} + " " + spec.label + " threw: " + o.error);
    } else if (o.budget_tripped) {
      fail(std::string{phase} + " " + spec.label + " tripped its budget");
    } else if (o.audit_violations != 0) {
      fail(std::string{phase} + " " + spec.label + " reported audit violations");
    } else if (o.trace_hash == 0 || o.trace_hash != expected_hash) {
      fail(std::string{phase} + " " + spec.label + " did not reproduce its trace hash");
    }
  }
};

double mean_fct_ms(const Campaign& c, const std::vector<RunOutcome>& pass,
                   hb::schemes::Scheme scheme, const std::string& label_prefix,
                   std::uint64_t& runs) {
  double sum = 0.0;
  std::size_t flows = 0;
  for (std::size_t i = 0; i < pass.size(); ++i) {
    const perfbench::RunSpec& spec = c.runs[i];
    if (spec.scheme != scheme || spec.label.rfind(label_prefix, 0) != 0) continue;
    sum += pass[i].fct_sum_ms;
    flows += pass[i].measured_flows;
    ++runs;
  }
  return flows == 0 ? 0.0 : sum / static_cast<double>(flows);
}

/// DESIGN §6 orderings this workload covers, on one pass.
void check_orderings(const Campaign& c, const std::vector<RunOutcome>& pass, Checks& checks) {
  using hb::schemes::Scheme;
  std::uint64_t runs = 0;
  if (c.workload == "dumbbell_short") {
    // Mean FCT at the lowest load: Halfback <= JumpStart <= TCP-10 <= TCP,
    // with the two paced schemes equal up to the 25 % the repo's shape test
    // (Fig12LowLoadLatencyOrdering) allows: ROPR copies cost Halfback a few
    // percent of queueing against JumpStart even at 15 % load.
    const std::string low = "u=15/";
    const double h = mean_fct_ms(c, pass, Scheme::halfback, low, runs);
    const double j = mean_fct_ms(c, pass, Scheme::jumpstart, low, runs);
    const double t10 = mean_fct_ms(c, pass, Scheme::tcp10, low, runs);
    const double t = mean_fct_ms(c, pass, Scheme::tcp, low, runs);
    std::printf("ordering u=15%%: mean FCT halfback %.1f ~<= jumpstart %.1f <= tcp10 %.1f <= tcp %.1f ms\n",
                h, j, t10, t);
    if (!(h > 0 && h <= 1.25 * j && std::max(h, j) <= t10 && t10 <= t)) {
      checks.fail("low-load FCT ordering Halfback <= JumpStart <= TCP-10 <= TCP failed", runs);
    }
  } else if (c.workload == "wan_trials") {
    const double h = mean_fct_ms(c, pass, Scheme::halfback, "", runs);
    const double t = mean_fct_ms(c, pass, Scheme::tcp, "", runs);
    std::printf("ordering: mean FCT halfback %.1f < tcp %.1f ms\n", h, t);
    if (!(h > 0 && h < t)) checks.fail("Halfback mean FCT not below TCP's", runs);
  }
}

std::uint64_t trace_digest(const std::vector<std::uint64_t>& hashes) {
  std::uint64_t h = 14695981039346656037ULL;
  for (std::uint64_t v : hashes) h = fnv1a(h, v);
  return h;
}

int finish(const Checks& checks, const std::vector<Metric>& metrics, std::uint64_t digest) {
  for (const std::string& p : checks.problems) std::printf("FAILED: %s\n", p.c_str());
  std::printf("trace_digest = %016" PRIx64 "\n", digest);
  std::printf("failed_frac = %.6f (%" PRIu64 " of %" PRIu64 " runs)\n",
              checks.attempted == 0 ? 1.0
                                    : static_cast<double>(checks.failed) /
                                          static_cast<double>(checks.attempted),
              checks.failed, checks.attempted);
  for (const Metric& m : metrics) {
    std::printf("%-36s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const bool correct = checks.failed == 0 && checks.attempted > 0;
  std::printf("%s\n",
              perfbench::result_json(correct, checks.attempted, checks.failed, metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

// --- passes ---------------------------------------------------------------------

/// Passes measured at least, whatever --seconds says: each run's figure is
/// its median over the passes.
constexpr int kMinPasses = 3;

/// Each run's wall times over the passes, with the SpeedScale mark of each.
struct RunTimes {
  std::vector<std::vector<double>> wall_ms;
  std::vector<std::vector<std::size_t>> marks;

  explicit RunTimes(std::size_t runs) : wall_ms(runs), marks(runs) {}

  void add(std::size_t run, double ms, std::size_t mark) {
    wall_ms[run].push_back(ms);
    marks[run].push_back(mark);
  }

  /// Each run's median time over its passes on the reference machine's
  /// scale (call after SpeedScale::finish). A run is deterministic work, so
  /// what varies between its passes is the machine: the scaling takes out
  /// the machine's drift, the median what the gauge missed.
  std::vector<double> scaled_ms(const SpeedScale& speed) const {
    std::vector<double> out;
    out.reserve(wall_ms.size());
    for (std::size_t i = 0; i < wall_ms.size(); ++i) {
      std::vector<double> scaled;
      for (std::size_t k = 0; k < wall_ms[i].size(); ++k) {
        scaled.push_back(wall_ms[i][k] * speed.factor(marks[i][k]));
      }
      out.push_back(perfbench::median(scaled));
    }
    return out;
  }

  /// Each run's median wall time, unscaled.
  std::vector<double> wall_median_ms() const {
    std::vector<double> out;
    out.reserve(wall_ms.size());
    for (const std::vector<double>& times : wall_ms) out.push_back(perfbench::median(times));
    return out;
  }
};

double total(const std::vector<double>& values) {
  double t = 0.0;
  for (double v : values) t += v;
  return t;
}

/// One untraced pass, each run timed as a span of `speed`.
std::vector<RunOutcome> untraced_pass(const Campaign& c, SpeedScale& speed, RunTimes& times) {
  std::vector<RunOutcome> outcomes;
  outcomes.reserve(c.runs.size());
  for (std::size_t i = 0; i < c.runs.size(); ++i) {
    const std::size_t mark = speed.before_span();
    outcomes.push_back(perfbench::execute(c, i));
    speed.after_span(outcomes.back().wall_ms);
    times.add(i, outcomes.back().wall_ms, mark);
  }
  return outcomes;
}

/// The first pass is a warm-up and is not timed: it runs 5-20 % slower
/// than the passes after it. It records each run's trace hash, which every
/// later pass must reproduce, and checks the DESIGN §6 orderings.
std::vector<RunOutcome> warmup_pass(const Campaign& c, SpeedScale& speed, Checks& checks,
                                    std::vector<std::uint64_t>& baseline) {
  RunTimes untimed(c.runs.size());
  std::vector<RunOutcome> outcomes = untraced_pass(c, speed, untimed);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    baseline.push_back(outcomes[i].trace_hash);
    checks.run(c.runs[i], outcomes[i], baseline[i], "run");
  }
  check_orderings(c, outcomes, checks);
  return outcomes;
}

/// The gauge's own figures, printed with the run times they scaled.
void print_scale(const SpeedScale& speed, const RunTimes& times, std::uint64_t flows) {
  const std::vector<double> wall = times.wall_median_ms();
  std::printf("speed gauge: %zu samples, median %.3f ms (reference %.3f ms); unscaled: "
              "flows_per_s %.2f, run_ms.p50 %.4f, run_ms.p90 %.4f\n",
              speed.samples().size(), perfbench::median(speed.samples()),
              perfbench::kReferenceGaugeMs, static_cast<double>(flows) / (total(wall) / 1e3),
              perfbench::percentile(wall, 0.5).value, perfbench::percentile(wall, 0.9).value);
  std::printf("pass times, scaled (unscaled), s:");
  for (std::size_t k = 0; k < times.wall_ms.front().size(); ++k) {
    double scaled = 0.0, raw = 0.0;
    for (std::size_t i = 0; i < times.wall_ms.size(); ++i) {
      raw += times.wall_ms[i][k] / 1e3;
      scaled += times.wall_ms[i][k] * speed.factor(times.marks[i][k]) / 1e3;
    }
    std::printf(" %.3f (%.3f)", scaled, raw);
  }
  std::printf("\n");
}

void print_header(const Args& a, const Campaign& c) {
  std::printf("perfbench workload=%s seed=%" PRIu64 " seconds=%g trace=%d runs/pass=%zu workers=1\n",
              a.workload.c_str(), a.seed, a.seconds, a.trace, c.runs.size());
}

// --- end-to-end (untraced) --------------------------------------------------------

int untraced(const Args& a) {
  SpeedScale speed;
  Setup s = set_up(a, speed);
  const Campaign& c = s.campaign;
  print_header(a, c);
  Checks checks;
  std::vector<std::uint64_t> baseline;
  std::uint64_t flows = 0;
  for (const RunOutcome& o : warmup_pass(c, speed, checks, baseline)) flows += o.measured_flows;
  RunTimes times(c.runs.size());
  int passes = 0;
  const auto start = Clock::now();
  do {
    const std::vector<RunOutcome> outcomes = untraced_pass(c, speed, times);
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      checks.run(c.runs[i], outcomes[i], baseline[i], "run");
    }
    ++passes;
  } while (passes < kMinPasses || seconds_since(start) < a.seconds);
  speed.finish();

  const std::vector<double> run_ms = times.scaled_ms(speed);
  const double pass_s = total(run_ms) / 1e3;
  const perfbench::Percentile p50 = perfbench::percentile(run_ms, 0.5);
  const perfbench::Percentile p90 = perfbench::percentile(run_ms, 0.9);
  std::printf("measured %d passes in %.3f s; a pass is %zu runs, %" PRIu64
              " flows, %.3f s of scaled median run times\n",
              passes, seconds_since(start), c.runs.size(), flows, pass_s);
  std::printf("run_ms.p50 over %zu runs (%zu beyond); run_ms.p90 over %zu runs (%zu beyond)\n",
              p50.count, p50.beyond, p90.count, p90.beyond);
  print_scale(speed, times, flows);
  const std::vector<Metric> metrics = {
      {"flows_per_s", static_cast<double>(flows) / pass_s, "1/s"},
      {"run_ms.p50", p50.value, "ms"},
      {"run_ms.p90", p90.value, "ms"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"setup_s", s.setup_s(speed), "s"},
  };
  return finish(checks, metrics, trace_digest(baseline));
}

// --- per-layer (traced) ----------------------------------------------------------

struct HubTotals {
  std::uint64_t events = 0;
  double queue_peak = 0.0;
  std::uint64_t rto_fired = 0;
  std::uint64_t retx_sent = 0;
  std::uint64_t ropr_packets = 0;
  std::uint64_t paced_packets = 0;
};

struct TracedPass {
  std::vector<RunOutcome> outcomes;
  HubTotals hub;
  hb::sim::DispatchProfiler profiler;
  std::uint64_t run_cycles = 0;  ///< cycle counter around runner calls
  double run_ns = 0.0;           ///< steady clock around the same calls
};

/// One pass through the runners' public seams: a fresh Hub per run, one
/// DispatchProfiler for the pass (dumbbell runs; trials take a hub only).
/// Each run is timed as a span of `speed`.
void traced_pass(const Campaign& c, TracedPass& t, SpeedScale& speed, RunTimes& times) {
  t.outcomes.reserve(c.runs.size());
  for (std::size_t i = 0; i < c.runs.size(); ++i) {
    const std::size_t mark = speed.before_span();
    hb::telemetry::Hub hub;
    perfbench::Observers obs;
    obs.hub = &hub;
    if (!c.runs[i].trial) obs.profiler = &t.profiler;
    const std::uint64_t c0 = hb::sim::read_cycle_counter();
    t.outcomes.push_back(perfbench::execute(c, i, obs));
    t.run_cycles += hb::sim::read_cycle_counter() - c0;
    t.run_ns += t.outcomes.back().wall_ms * 1e6;
    speed.after_span(t.outcomes.back().wall_ms);
    times.add(i, t.outcomes.back().wall_ms, mark);
    t.hub.events += hub.sim().events_dispatched->value();
    t.hub.queue_peak = std::max(t.hub.queue_peak, hub.sim().event_queue_peak->value());
    t.hub.rto_fired += hub.transport().rto_fired->value();
    t.hub.retx_sent += hub.transport().retx_sent->value();
    t.hub.ropr_packets += hub.scheme().ropr_packets->value();
    t.hub.paced_packets += hub.scheme().paced_packets->value();
  }
}

/// Profiler cycles (sampled every kSamplePeriod-th dispatch, so scaled
/// back up) per event class.
struct EventShares {
  double packet = 0, txdone = 0, timer = 0, function = 0;
  std::uint64_t txdone_count = 0;
  double txdone_cycles = 0;
};

/// Cycles two back-to-back cycle-counter reads take: what the profiler's
/// bracketing adds to every sampled fire().
double cycle_read_overhead() {
  std::vector<double> deltas;
  for (int i = 0; i < 10001; ++i) {
    const std::uint64_t c0 = hb::sim::read_cycle_counter();
    const std::uint64_t c1 = hb::sim::read_cycle_counter();
    deltas.push_back(static_cast<double>(c1 - c0));
  }
  return perfbench::median(deltas);
}

EventShares event_shares(const hb::sim::DispatchProfiler& profiler, std::uint64_t run_cycles) {
  EventShares s;
  if (run_cycles == 0) return s;
  const double scale = static_cast<double>(hb::sim::DispatchProfiler::kSamplePeriod);
  const double read_cost = cycle_read_overhead();
  for (const hb::sim::DispatchProfiler::Row& row : profiler.rows()) {
    // Scale the sampled cycles back up, less the bracketing cost of the
    // ~count/kSamplePeriod sampled dispatches.
    const double cycles = std::max(
        0.0, scale * static_cast<double>(row.cycles) - static_cast<double>(row.count) * read_cost);
    const double share = cycles / static_cast<double>(run_cycles);
    const std::string& n = row.type_name;
    if (n.find("PacketEvent") != std::string::npos) {
      s.packet += share;
    } else if (n.find("TxDoneEvent") != std::string::npos) {
      s.txdone += share;
      s.txdone_count += row.count;
      s.txdone_cycles += cycles;
    } else if (n.find("Timer") != std::string::npos) {
      s.timer += share;
    } else if (n.find("FunctionEvent") != std::string::npos) {
      s.function += share;
    }
  }
  return s;
}

struct ReplayTotals {
  std::uint64_t runs = 0;
  std::uint64_t audit_hooks = 0, link_delivered = 0, accepted = 0;
  std::uint64_t unique_data = 0, data_sent = 0, queue_drops = 0, run_cycles = 0;
  std::uint64_t queue_peak_bytes = 0;
};

int traced(const Args& a) {
  SpeedScale speed;
  Setup s = set_up(a, speed);
  const Campaign& c = s.campaign;
  print_header(a, c);
  const std::size_t n = c.runs.size();
  Checks checks;
  std::vector<std::uint64_t> baseline;
  RunTimes untraced_times(n);
  RunTimes traced_times(n);
  std::vector<RunOutcome> first;
  HubTotals first_hub;
  EventShares seam_shares;
  double ns_per_cycle = 0.0;

  first = warmup_pass(c, speed, checks, baseline);
  const auto start = Clock::now();
  int pairs = 0;
  do {
    std::vector<RunOutcome> u = untraced_pass(c, speed, untraced_times);
    for (std::size_t i = 0; i < n; ++i) checks.run(c.runs[i], u[i], baseline[i], "untraced");
    TracedPass t;
    traced_pass(c, t, speed, traced_times);
    for (std::size_t i = 0; i < n; ++i) checks.run(c.runs[i], t.outcomes[i], baseline[i], "traced");
    if (pairs == 0) {
      first_hub = t.hub;
      seam_shares = event_shares(t.profiler, t.run_cycles);
      if (t.run_cycles > 0) ns_per_cycle = t.run_ns / static_cast<double>(t.run_cycles);
    }
    ++pairs;
  } while (seconds_since(start) < a.seconds);
  speed.finish();
  // Untraced and traced runs on the end-to-end metrics' rule: each run's
  // scaled median.
  const std::vector<double> run_ms = untraced_times.scaled_ms(speed);
  const double pass_s = total(run_ms) / 1e3;
  const double overhead_frac = total(traced_times.scaled_ms(speed)) / total(run_ms) - 1.0;

  // Replays with spans at the seams the runners do not expose.
  perfbench::SpanRecorder recorder;
  recorder.calibrate();
  const perfbench::ReplayNames names{recorder};
  hb::sim::DispatchProfiler replay_profiler;
  ReplayTotals rt;
  std::vector<std::uint64_t> replay_accepted(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const perfbench::ReplayStats r = perfbench::replay(
        c, c.runs[i], static_cast<std::uint32_t>(i), recorder, names,
        c.runs[i].trial ? &replay_profiler : nullptr);
    ++checks.attempted;
    if (!perfbench::replay_matches(baseline[i], r)) {
      checks.fail("replay of " + c.runs[i].label + " diverged from the runner" +
                  (r.threw ? " (threw: " + r.error + ")" : std::string{}));
    } else if (r.audit_violations != 0) {
      checks.fail("replay of " + c.runs[i].label + " reported audit violations");
    }
    ++rt.runs;
    rt.audit_hooks += r.audit_hooks;
    rt.link_delivered += r.link_delivered;
    rt.accepted += r.accepted;
    rt.unique_data += r.unique_data;
    rt.data_sent += r.data_sent;
    rt.queue_drops += r.queue_drops;
    rt.queue_peak_bytes = std::max(rt.queue_peak_bytes, r.queue_peak_bytes);
    if (c.runs[i].trial) rt.run_cycles += r.run_cycles;
    replay_accepted[i] = r.accepted;
  }
  if (!a.spans_out.empty()) {
    std::ofstream out{a.spans_out};
    recorder.write_jsonl(out);
  }

  // --- per-layer metrics ---
  const bool trials = !c.runs.empty() && c.runs.front().trial;
  const EventShares shares = trials ? event_shares(replay_profiler, rt.run_cycles) : seam_shares;

  std::uint64_t events = 0, accepted = 0, drops = 0, fault_seen = 0, fault_drops = 0;
  for (const RunOutcome& o : first) {
    events += o.events;
    accepted += o.accepted;
    drops += o.bottleneck_drops;
    fault_seen += o.fault_packets_seen;
    fault_drops += o.fault_drops;
  }
  if (trials) {
    events = first_hub.events;
    accepted = rt.accepted;
    drops = rt.queue_drops;
  }

  // Per-scheme cost per transport packet: scaled median untraced time of
  // the scheme's runs over their delivered packets.
  std::map<hb::schemes::Scheme, std::pair<double, std::uint64_t>> per_scheme;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t acc = trials ? replay_accepted[i] : first[i].accepted;
    auto& [ns, packets] = per_scheme[c.runs[i].scheme];
    ns += run_ms[i] * 1e6;
    packets += acc;
  }

  const perfbench::SpanRecorder::Totals& run_span = recorder.totals(names.run);
  const perfbench::SpanRecorder::Totals& handler = recorder.totals(names.handler);
  const perfbench::SpanRecorder::Totals& hook = recorder.totals(names.audit_hook);
  const perfbench::SpanRecorder::Totals& finalize = recorder.totals(names.audit_finalize);
  const perfbench::SpanRecorder::Totals& setup = recorder.totals(names.setup);
  const perfbench::SpanRecorder::Totals& fs_short = recorder.totals(names.flow_setup_short);
  const perfbench::SpanRecorder::Totals& fs_bulk = recorder.totals(names.flow_setup_bulk);
  const perfbench::SpanRecorder::Totals& transmit = recorder.totals(names.fault_transmit);
  const auto per_call = [](double ns, std::uint64_t calls, double unit) {
    return calls == 0 ? 0.0 : ns / static_cast<double>(calls) / unit;
  };
  const double replay_ns = run_span.inclusive_ns;

  std::vector<Metric> m = {
      {"sim.events", static_cast<double>(events), "count"},
      {"sim.events_per_s", static_cast<double>(events) / pass_s, "1/s"},
      {"sim.queue_peak", first_hub.queue_peak, "count"},
      {"sim.share.packet", shares.packet, "ratio"},
      {"sim.share.txdone", shares.txdone, "ratio"},
      {"sim.share.timer", shares.timer, "ratio"},
      {"sim.share.function", shares.function, "ratio"},
      {"sim.share.loop", 1.0 - shares.packet - shares.txdone - shares.timer - shares.function,
       "ratio"},
      {"net.packets", static_cast<double>(rt.link_delivered), "count"},
      {"net.ns_per_hop",
       shares.txdone_count == 0
           ? 0.0
           : shares.txdone_cycles / static_cast<double>(shares.txdone_count) * ns_per_cycle,
       "ns"},
      {"net.queue_drops", static_cast<double>(drops), "count"},
      {"net.queue_peak_kb", static_cast<double>(rt.queue_peak_bytes) / 1e3, "KB"},
      {"transport.packets", static_cast<double>(accepted), "count"},
      {"transport.ns_per_packet", per_call(handler.self_ns, handler.calls, 1.0), "ns"},
      {"transport.flow_setup_us.short", per_call(fs_short.inclusive_ns, fs_short.calls, 1e3), "us"},
      {"transport.flow_setup_us.bulk", per_call(fs_bulk.inclusive_ns, fs_bulk.calls, 1e3), "us"},
      {"transport.rto_fired", static_cast<double>(first_hub.rto_fired), "count"},
      {"transport.retx_sent", static_cast<double>(first_hub.retx_sent), "count"},
      {"transport.useful_ratio",
       rt.data_sent == 0 ? 0.0
                         : static_cast<double>(rt.unique_data) / static_cast<double>(rt.data_sent),
       "ratio"},
  };
  for (hb::schemes::Scheme scheme : hb::schemes::evaluation_set()) {
    const auto it = per_scheme.find(scheme);
    const double v = it == per_scheme.end() || it->second.second == 0
                         ? 0.0
                         : it->second.first / static_cast<double>(it->second.second);
    m.push_back({std::string{"schemes.ns_per_packet."} + hb::schemes::name(scheme), v, "ns"});
  }
  const std::vector<Metric> rest = {
      {"schemes.ropr_packets", static_cast<double>(first_hub.ropr_packets), "count"},
      {"schemes.paced_packets", static_cast<double>(first_hub.paced_packets), "count"},
      {"audit.hooks", static_cast<double>(rt.audit_hooks), "count"},
      {"audit.share",
       replay_ns > 0 ? (hook.inclusive_ns + finalize.inclusive_ns) / replay_ns : 0.0, "ratio"},
      {"audit.finalize_us", per_call(finalize.inclusive_ns, finalize.calls, 1e3), "us"},
      {"exp.setup_us", per_call(setup.inclusive_ns, setup.calls, 1e3), "us"},
      {"workload.gen_ms", s.gen_ms, "ms"},
      {"netfault.packets_seen", static_cast<double>(fault_seen), "count"},
      {"netfault.drops", static_cast<double>(fault_drops), "count"},
      {"netfault.share", replay_ns > 0 ? transmit.inclusive_ns / replay_ns : 0.0, "ratio"},
      {"telemetry.overhead_frac", overhead_frac, "ratio"},
  };
  m.insert(m.end(), rest.begin(), rest.end());

  std::printf("traced: %d untraced/traced pass pairs, %" PRIu64 " replays, %zu spans kept (%" PRIu64
              " over capacity)\n",
              pairs, rt.runs, recorder.spans().size(), recorder.dropped());
  std::printf("empty span costs its parent %.1f ns; self time per layer over the replays (ms):",
              recorder.outside_overhead_ns());
  for (const char* layer : {"exp", "sim", "transport", "audit", "netfault"}) {
    std::printf(" %s=%.1f", layer, recorder.layer_self_ns(layer) / 1e6);
  }
  std::printf("\n");
  for (std::uint32_t id = 0; id < recorder.name_count(); ++id) {
    const perfbench::SpanRecorder::Totals& t = recorder.totals(id);
    std::printf("  span %-28s calls %12" PRIu64 " timed %9" PRIu64 " inclusive %10.1f ms self %10.1f ms\n",
                recorder.name(id).c_str(), t.calls, t.spans, t.inclusive_ns / 1e6, t.self_ns / 1e6);
  }
  return finish(checks, m, trace_digest(baseline));
}

}  // namespace

int main(int argc, char** argv) {
  // Keep freed memory in the process. With glibc's defaults, whether a run
  // hands the top of the heap back to the kernel and faults it in again next
  // run depends on where the campaign's long-lived allocations happened to
  // land: a wan_trials campaign either pays ~170 page faults a trial or does
  // not, fixed by the seed, and its throughput moved by 20-30 % between
  // seeds of equal work. The timings therefore exclude the cost of returning
  // memory to the kernel between runs; allocation itself is still timed.
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  try {
    const Args args = parse_args(argc, argv);
    return args.trace == 0 ? untraced(args) : traced(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
