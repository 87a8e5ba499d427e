#include "campaign.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "exp/chaos.h"
#include "workload/flow_schedule.h"

namespace perfbench {
namespace hb = halfback;

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

constexpr std::uint64_t kShortFlowBytes = 100'000;

/// Poisson arrivals of 100 KB flows at `utilization` of the 15 Mbps
/// bottleneck, timed into `gen_ms`.
std::vector<hb::workload::FlowArrival> poisson_schedule(double utilization,
                                                        double duration_s,
                                                        std::uint64_t rng_seed,
                                                        double& gen_ms) {
  const auto t0 = Clock::now();
  hb::sim::Random rng{rng_seed};
  hb::workload::ScheduleConfig sc;
  sc.target_utilization = utilization;
  sc.duration = hb::sim::Time::seconds(duration_s);
  auto schedule = hb::workload::make_schedule(
      hb::workload::FlowSizeDist::fixed(kShortFlowBytes), sc, rng);
  gen_ms += ms_since(t0);
  return schedule;
}

/// `count` 100 KB flows, one per `spacing_s` slot at a seeded offset inside
/// it: a fixed offered load whose arrival times still come from the seed.
std::vector<hb::workload::FlowArrival> jittered_arrivals(int count, double spacing_s,
                                                         std::uint64_t rng_seed,
                                                         double& gen_ms) {
  const auto t0 = Clock::now();
  hb::sim::Random rng{rng_seed};
  std::vector<hb::workload::FlowArrival> arrivals;
  for (int slot = 0; slot < count; ++slot) {
    arrivals.push_back(
        {hb::sim::Time::seconds((slot + rng.uniform(0.0, 1.0)) * spacing_s), kShortFlowBytes});
  }
  gen_ms += ms_since(t0);
  return arrivals;
}

RunSpec dumbbell_run(std::string label, hb::schemes::Scheme scheme,
                     hb::exp::EmulabRunner::Config runner,
                     std::vector<hb::exp::WorkloadPart> parts) {
  RunSpec spec;
  spec.label = std::move(label) + "/" + hb::schemes::name(scheme);
  spec.scheme = scheme;
  spec.runner = std::move(runner);
  spec.parts = std::move(parts);
  return spec;
}

/// Fig. 12: 100 KB Poisson flows at 15-90 % utilization, one schedule per
/// utilization shared by the 8 evaluation schemes.
void dumbbell_short(Campaign& c) {
  constexpr double kDurationS = 10.0;
  int step = 0;
  for (int pct = 15; pct <= 90; pct += 5, ++step) {
    const auto schedule = poisson_schedule(pct / 100.0, kDurationS,
                                           c.seed * 7919 + static_cast<std::uint64_t>(step) * 1000,
                                           c.gen_ms);
    for (hb::schemes::Scheme scheme : hb::schemes::evaluation_set()) {
      hb::exp::EmulabRunner::Config runner;
      runner.seed = c.seed;
      c.runs.push_back(dumbbell_run(
          "u=" + std::to_string(pct), scheme, runner,
          {hb::exp::WorkloadPart{scheme, schedule, hb::exp::FlowRole::primary, {}}}));
    }
  }
}

/// Figs. 5-8: one-flow trials over the 2.6 K-path wide-area ensemble, a
/// fresh simulator per trial, across the 6 PlanetLab schemes. Like the
/// paper's one PlanetLab campaign, the ensemble is fixed (PlanetLabConfig's
/// default seed): a trial's cost is heavy-tailed in its path, and a
/// per-seed ensemble moves the campaign's wall time by a third. The
/// workload seed draws the trial seeds (the simulator's random streams).
/// The campaign takes a stratified sample of 200 paths: ordered by cross
/// traffic, bottleneck rate and RTT, every 2600/200-th path.
///
/// Unlike PlanetLabEnv::run, which gives the schemes of a path one trial
/// seed (seed * 31 + path), every (path, scheme) trial has its own. A trial
/// with cross traffic costs what its seed makes of the 50 MB cross flow, and
/// under one seed the six schemes of a path cost about the same, so with
/// shared seeds a pass's cost would ride on 200 random draws; with its own
/// seed per trial it averages 1200.
void wan_trials(Campaign& c) {
  constexpr std::size_t kTrialPaths = 200;
  c.planetlab.pair_count = 2600;
  c.planetlab.flow_bytes = kShortFlowBytes;
  c.planetlab.threads = 1;
  const auto t0 = Clock::now();
  c.env = std::make_unique<hb::exp::PlanetLabEnv>(c.planetlab);
  const std::vector<hb::exp::PathSample>& paths = c.env->paths();
  std::vector<std::size_t> order(paths.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const hb::exp::PathSample& pa = paths[a];
    const hb::exp::PathSample& pb = paths[b];
    if (pa.cross_traffic != pb.cross_traffic) return pb.cross_traffic;
    if (pa.bottleneck.bps() != pb.bottleneck.bps()) return pa.bottleneck.bps() < pb.bottleneck.bps();
    if (pa.rtt != pb.rtt) return pa.rtt < pb.rtt;
    return a < b;
  });
  std::vector<std::size_t> sample;
  for (std::size_t k = 0; k < kTrialPaths; ++k) {
    sample.push_back(order[(2 * k + 1) * order.size() / (2 * kTrialPaths)]);
  }
  c.gen_ms += ms_since(t0);
  constexpr std::uint64_t kSchemeStride = 1'000'003;  // > pair_count: seeds never repeat
  std::uint64_t scheme_index = 0;
  for (hb::schemes::Scheme scheme : hb::schemes::planetlab_set()) {
    for (std::size_t i : sample) {
      RunSpec spec;
      spec.label = "path=" + std::to_string(i) + "/" + hb::schemes::name(scheme);
      spec.scheme = scheme;
      spec.trial = true;
      spec.path = i;
      spec.trial_seed = c.seed * 31 + i + kSchemeStride * scheme_index;
      c.runs.push_back(std::move(spec));
    }
    ++scheme_index;
  }
}

/// Fig. 10: one bulk TCP flow with a 1000-segment window fills a 10-600 KB
/// buffer while a 100 KB flow arrives every ~10 s (one per 10 s slot, at a
/// seeded offset inside it), across the 8 evaluation schemes.
void bulk_bloat(Campaign& c) {
  constexpr double kDurationS = 20.0;
  constexpr double kSlotS = 10.0;
  const std::vector<std::uint64_t> buffers_kb = {10,  25,  50,  75,  100, 115, 150,
                                                 200, 250, 300, 400, 450, 600};
  const auto shorts = jittered_arrivals(static_cast<int>(kDurationS / kSlotS), kSlotS,
                                        c.seed * 11, c.gen_ms);
  const auto t0 = Clock::now();
  const hb::sim::DataRate bottleneck = hb::net::DumbbellConfig{}.bottleneck_rate;
  const auto bg_bytes =
      static_cast<std::uint64_t>(bottleneck.bytes_per_second() * kDurationS * 1.2);
  const std::vector<hb::workload::FlowArrival> background{{hb::sim::Time::zero(), bg_bytes}};
  hb::transport::SenderConfig bulk_config;
  bulk_config.receive_window_segments = 1000;
  c.gen_ms += ms_since(t0);
  for (std::uint64_t kb : buffers_kb) {
    for (hb::schemes::Scheme scheme : hb::schemes::evaluation_set()) {
      hb::exp::EmulabRunner::Config runner;
      runner.seed = c.seed;
      runner.dumbbell.bottleneck_buffer_bytes = kb * 1000;
      c.runs.push_back(dumbbell_run(
          "buffer=" + std::to_string(kb) + "KB", scheme, runner,
          {hb::exp::WorkloadPart{scheme, shorts, hb::exp::FlowRole::primary, {}},
           hb::exp::WorkloadPart{hb::schemes::Scheme::tcp, background,
                                 hb::exp::FlowRole::background, bulk_config}}));
    }
  }
}

/// Short flows at 30 % and 50 % load under every chaos-catalog scenario,
/// with the default cell budget (the budgeted dispatch loop). Arrivals are
/// jittered-periodic, as the chaos sweep's are evenly spaced: with Poisson
/// arrivals the flow count, and with it each run's cost, would move ~10 %
/// from seed to seed on top of the seeded fault streams.
void faulty_dumbbell(Campaign& c) {
  constexpr double kDurationS = 10.0;
  const std::vector<int> loads_pct = {30, 50};
  const double bytes_per_s = hb::net::DumbbellConfig{}.bottleneck_rate.bytes_per_second();
  std::vector<std::vector<hb::workload::FlowArrival>> schedules;
  for (std::size_t u = 0; u < loads_pct.size(); ++u) {
    const double spacing_s = kShortFlowBytes / (loads_pct[u] / 100.0 * bytes_per_s);
    schedules.push_back(jittered_arrivals(static_cast<int>(kDurationS / spacing_s), spacing_s,
                                          c.seed * 104729 + u, c.gen_ms));
  }
  for (const hb::exp::ChaosScenario& scenario : hb::exp::chaos_catalog()) {
    for (std::size_t u = 0; u < loads_pct.size(); ++u) {
      for (hb::schemes::Scheme scheme : hb::schemes::evaluation_set()) {
        hb::exp::EmulabRunner::Config runner;
        runner.seed = c.seed;
        runner.faults = scenario.faults;
        runner.budget = hb::exp::default_cell_budget();
        c.runs.push_back(dumbbell_run(
            scenario.name + "/u=" + std::to_string(loads_pct[u]), scheme, runner,
            {hb::exp::WorkloadPart{scheme, schedules[u], hb::exp::FlowRole::primary, {}}}));
      }
    }
  }
}

}  // namespace

Campaign make_campaign(const std::string& workload, std::uint64_t seed) {
  Campaign c;
  c.workload = workload;
  c.seed = seed;
  if (workload == "dumbbell_short") {
    dumbbell_short(c);
  } else if (workload == "wan_trials") {
    wan_trials(c);
  } else if (workload == "bulk_bloat") {
    bulk_bloat(c);
  } else if (workload == "faulty_dumbbell") {
    faulty_dumbbell(c);
  } else {
    throw std::invalid_argument("unknown workload: " + workload);
  }
  // Warm-up: every 16th run.
  for (std::size_t i = 0; i < c.runs.size(); i += 16) c.warmup.push_back(i);
  return c;
}

RunOutcome execute(const Campaign& campaign, std::size_t index, Observers observers) {
  const RunSpec& spec = campaign.runs.at(index);
  RunOutcome out;
  const auto t0 = Clock::now();
  try {
    if (spec.trial) {
      const hb::exp::TrialResult r = campaign.env->run_one(
          spec.scheme, campaign.env->paths().at(spec.path), spec.trial_seed, observers.hub);
      out.wall_ms = ms_since(t0);
      out.trace_hash = r.trace_hash;
      out.audit_violations = r.audit_violations;
      out.measured_flows = 1;
      out.fct_sum_ms = r.record.fct().to_ms();
      return out;
    }
    hb::exp::EmulabRunner::Config config = spec.runner;
    config.telemetry = observers.hub;
    config.profiler = observers.profiler;
    hb::exp::EmulabRunner runner{config};
    const hb::exp::RunResult r = runner.run(spec.parts);
    out.wall_ms = ms_since(t0);
    out.trace_hash = r.trace_hash;
    out.audit_violations = r.audit_violations;
    out.budget_tripped = r.budget_report.tripped != hb::sim::BudgetTrip::none;
    for (const hb::exp::FlowResult& f : r.flows) {
      if (f.role != hb::exp::FlowRole::primary) continue;
      ++out.measured_flows;
      out.fct_sum_ms += f.finished ? f.record.fct().to_ms() : f.censored_fct.to_ms();
    }
    out.events = r.events_executed;
    out.accepted = r.delivery.accepted;
    out.bottleneck_drops = r.bottleneck_drops_total;
    out.fault_packets_seen = r.faults.packets_seen;
    out.fault_drops = r.faults.total_drops();
  } catch (const std::exception& e) {
    out.wall_ms = ms_since(t0);
    out.threw = true;
    out.error = e.what();
  }
  return out;
}

}  // namespace perfbench
